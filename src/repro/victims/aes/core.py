"""Vectorized bit-accurate AES-128.

State layout: each block is a flat 16-byte vector in *input byte order*
(byte ``i`` of the input is state element ``i``; FIPS-197's state matrix
column ``c`` row ``r`` is element ``4c + r``).  All operations vectorize
over an arbitrary batch axis, so encrypting 60,000 plaintexts for a
trace campaign is a handful of table-lookup passes.

Beyond ciphertexts, :meth:`AES128.round_states` exposes the exact
sequence of values the hardware round register holds — cycle 0 holds
``AddRoundKey(pt, k0)``, cycles 1..10 hold the round outputs — which is
what the Hamming-distance power model consumes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.victims.aes.key_schedule import expand_key
from repro.victims.aes.sbox import INV_SBOX, SBOX, XTIME, gf_mul

#: GF(2^8) multiplication tables for the InvMixColumns coefficients.
_MUL9 = np.array([gf_mul(x, 9) for x in range(256)], dtype=np.uint8)
_MUL11 = np.array([gf_mul(x, 11) for x in range(256)], dtype=np.uint8)
_MUL13 = np.array([gf_mul(x, 13) for x in range(256)], dtype=np.uint8)
_MUL14 = np.array([gf_mul(x, 14) for x in range(256)], dtype=np.uint8)

#: ShiftRows as a gather: new_state[i] = state[SHIFT_ROWS_IDX[i]].
#: Row r of the state matrix rotates left by r; element 4c + r comes
#: from column (c + r) mod 4.
SHIFT_ROWS_IDX = np.array(
    [(4 * ((i // 4 + i % 4) % 4) + i % 4) for i in range(16)], dtype=np.intp
)

#: Inverse permutation of :data:`SHIFT_ROWS_IDX`.
INV_SHIFT_ROWS_IDX = np.empty(16, dtype=np.intp)
INV_SHIFT_ROWS_IDX[SHIFT_ROWS_IDX] = np.arange(16, dtype=np.intp)


def _as_blocks(data) -> np.ndarray:
    blocks = np.asarray(
        bytearray(data) if isinstance(data, (bytes, bytearray)) else data,
        dtype=np.uint8,
    )
    if blocks.ndim == 1:
        blocks = blocks.reshape(1, -1)
    if blocks.ndim != 2 or blocks.shape[1] != 16:
        raise ConfigurationError(
            f"AES blocks must be (n, 16) bytes, got shape {blocks.shape}"
        )
    return blocks


def sub_bytes(state: np.ndarray) -> np.ndarray:
    """SubBytes over a batch of states."""
    return SBOX[state]


def shift_rows(state: np.ndarray) -> np.ndarray:
    """ShiftRows over a batch of states."""
    return state[..., SHIFT_ROWS_IDX]


def mix_columns(state: np.ndarray) -> np.ndarray:
    """MixColumns over a batch of states (table-based GF math)."""
    out = np.empty_like(state)
    for c in range(4):
        col = state[..., 4 * c : 4 * c + 4]
        b0, b1, b2, b3 = col[..., 0], col[..., 1], col[..., 2], col[..., 3]
        all_xor = b0 ^ b1 ^ b2 ^ b3
        out[..., 4 * c + 0] = b0 ^ all_xor ^ XTIME[b0 ^ b1]
        out[..., 4 * c + 1] = b1 ^ all_xor ^ XTIME[b1 ^ b2]
        out[..., 4 * c + 2] = b2 ^ all_xor ^ XTIME[b2 ^ b3]
        out[..., 4 * c + 3] = b3 ^ all_xor ^ XTIME[b3 ^ b0]
    return out


def inv_sub_bytes(state: np.ndarray) -> np.ndarray:
    """InvSubBytes over a batch of states."""
    return INV_SBOX[state]


def inv_shift_rows(state: np.ndarray) -> np.ndarray:
    """InvShiftRows over a batch of states."""
    return state[..., INV_SHIFT_ROWS_IDX]


def inv_mix_columns(state: np.ndarray) -> np.ndarray:
    """InvMixColumns over a batch of states (coefficients 14/11/13/9)."""
    out = np.empty_like(state)
    for c in range(4):
        col = state[..., 4 * c : 4 * c + 4]
        b0, b1, b2, b3 = col[..., 0], col[..., 1], col[..., 2], col[..., 3]
        out[..., 4 * c + 0] = _MUL14[b0] ^ _MUL11[b1] ^ _MUL13[b2] ^ _MUL9[b3]
        out[..., 4 * c + 1] = _MUL9[b0] ^ _MUL14[b1] ^ _MUL11[b2] ^ _MUL13[b3]
        out[..., 4 * c + 2] = _MUL13[b0] ^ _MUL9[b1] ^ _MUL14[b2] ^ _MUL11[b3]
        out[..., 4 * c + 3] = _MUL11[b0] ^ _MUL13[b1] ^ _MUL9[b2] ^ _MUL14[b3]
    return out


class AES128:
    """An AES-128 cipher instance bound to one key.

    Parameters
    ----------
    key:
        16 bytes (bytes-like or uint8 array).
    """

    #: Clock cycles a round-per-cycle hardware core spends per block:
    #: one load cycle plus ten round cycles.
    CYCLES_PER_BLOCK = 11

    def __init__(self, key) -> None:
        self.round_keys = expand_key(key)
        self.key = self.round_keys[0].copy()

    # ------------------------------------------------------------------
    def encrypt_blocks(self, plaintexts) -> np.ndarray:
        """Encrypt a batch of blocks; returns ``(n, 16)`` ciphertexts."""
        return self.round_states(plaintexts)[:, -1, :]

    def encrypt(self, plaintext) -> bytes:
        """Encrypt a single 16-byte block; returns bytes."""
        return self.encrypt_blocks(plaintext)[0].tobytes()

    def round_states(self, plaintexts) -> np.ndarray:
        """The register-resident state sequence per block.

        Returns ``(n, 11, 16)``: index 0 is the initial
        ``AddRoundKey`` result (what the round register latches on the
        load cycle), indices 1..9 the middle-round outputs, index 10 the
        final round output = the ciphertext.
        """
        pts = _as_blocks(plaintexts)
        n = pts.shape[0]
        states = np.empty((n, 11, 16), dtype=np.uint8)
        state = pts ^ self.round_keys[0]
        states[:, 0] = state
        for rnd in range(1, 10):
            state = sub_bytes(state)
            state = shift_rows(state)
            state = mix_columns(state)
            state = state ^ self.round_keys[rnd]
            states[:, rnd] = state
        # Final round: no MixColumns.
        state = sub_bytes(state)
        state = shift_rows(state)
        state = state ^ self.round_keys[10]
        states[:, 10] = state
        return states

    def decrypt_blocks(self, ciphertexts) -> np.ndarray:
        """Decrypt a batch of blocks; returns ``(n, 16)`` plaintexts.

        The hardware core is encrypt-only (the attack never needs the
        inverse cipher), but the reference implementation carries it so
        encryption is verifiable as a bijection and recovered keys can
        be validated against captured ciphertexts.
        """
        cts = _as_blocks(ciphertexts)
        state = cts ^ self.round_keys[10]
        state = inv_shift_rows(state)
        state = inv_sub_bytes(state)
        for rnd in range(9, 0, -1):
            state = state ^ self.round_keys[rnd]
            state = inv_mix_columns(state)
            state = inv_shift_rows(state)
            state = inv_sub_bytes(state)
        return state ^ self.round_keys[0]

    def decrypt(self, ciphertext) -> bytes:
        """Decrypt a single 16-byte block; returns bytes."""
        return self.decrypt_blocks(ciphertext)[0].tobytes()
