"""AES-128 key expansion and its inversion.

The CPA on a round-per-cycle core recovers the *last* round key; the
attacker then runs the schedule backwards to obtain the master key.
Both directions live here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.victims.aes.sbox import SBOX

#: Round constants for AES-128 (Rcon[i] applies to round i+1).
RCON = np.array([0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36], dtype=np.uint8)


def _check_key(key) -> np.ndarray:
    key = np.asarray(bytearray(key) if isinstance(key, (bytes, bytearray)) else key, dtype=np.uint8)
    if key.shape != (16,):
        raise ConfigurationError(f"AES-128 key must be 16 bytes, got shape {key.shape}")
    return key


def expand_key(key) -> np.ndarray:
    """Expand a 16-byte key into the 11 round keys, shape ``(11, 16)``."""
    key = _check_key(key)
    words = [key[i * 4 : (i + 1) * 4].copy() for i in range(4)]
    for i in range(4, 44):
        temp = words[i - 1].copy()
        if i % 4 == 0:
            temp = np.roll(temp, -1)
            temp = SBOX[temp]
            temp[0] ^= RCON[i // 4 - 1]
        words.append(words[i - 4] ^ temp)
    return np.concatenate(words).reshape(11, 16)


def invert_key_schedule(round_key, round_index: int = 10) -> np.ndarray:
    """Recover the master key from one round key.

    Parameters
    ----------
    round_key:
        The 16-byte round key of round ``round_index``.
    round_index:
        Which round the key belongs to (10 = last round of AES-128).

    Returns
    -------
    numpy.ndarray
        The 16-byte master key.
    """
    rk = _check_key(round_key)
    if not 0 <= round_index <= 10:
        raise ConfigurationError("round_index must be 0..10 for AES-128")
    # Sliding window of the four words of round r; step back one round
    # at a time using w[i-4] = w[i] ^ t_i(w[i-1]).
    w = [rk[i * 4 : (i + 1) * 4].copy() for i in range(4)]
    for r in range(round_index, 0, -1):
        w3 = w[3] ^ w[2]  # w[4r-1]
        w2 = w[2] ^ w[1]  # w[4r-2]
        w1 = w[1] ^ w[0]  # w[4r-3]
        t = SBOX[np.roll(w3, -1)].copy()
        t[0] ^= RCON[r - 1]
        w0 = w[0] ^ t  # w[4r-4]
        w = [w0, w1, w2, w3]
    return np.concatenate(w).astype(np.uint8)
