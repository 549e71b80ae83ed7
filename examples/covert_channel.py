"""FPGA-to-FPGA-tenant covert channel over the shared PDN.

Reproduces the Section IV-C scenario on the ZU3EG model: a sender
tenant (power-virus bank) transmits a text message to a receiver tenant
(LeakyDSP) by modulating the shared supply voltage, at the paper's
recommended 4 ms bit time.

Run: ``python examples/covert_channel.py``
"""

import numpy as np

from repro.attacks.covert import CovertChannelConfig
from repro.experiments.fig7_covert import build_channel

MESSAGE = (
    "LeakyDSP: exploiting DSP blocks to sense voltage fluctuations "
    "in multi-tenant FPGAs."
)


def text_to_bits(text: str) -> np.ndarray:
    data = text.encode("utf-8")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_text(bits: np.ndarray) -> str:
    data = np.packbits(bits.astype(np.uint8)).tobytes()
    return data.decode("utf-8", errors="replace")


def main() -> None:
    channel = build_channel(seed=7, config=CovertChannelConfig())
    print(f"sender droop at receiver: {channel.droop_on * 1e3:.1f} mV")

    payload = text_to_bits(MESSAGE)
    bit_time = 4e-3  # the paper's recommended operating point
    result = channel.transmit(payload, bit_time, rng=123)

    print(f"sent     : {MESSAGE}")
    print(f"received : {bits_to_text(result.decoded)}")
    print(f"bits: {result.n_payload}, errors: {result.n_errors} "
          f"(BER {result.ber * 100:.2f}%)")
    print(f"transmission rate: {result.transmission_rate:.2f} b/s "
          f"(threshold {result.threshold:.1f} readout bits)")

    # The paper's trade-off: push the bit time down and errors creep in.
    print("\nbit-time sweep (1,000-bit random payloads):")
    rng = np.random.default_rng(7)
    for bt in (2e-3, 3e-3, 4e-3, 6e-3):
        r = channel.transmit(rng.integers(0, 2, 1000), bt, rng=rng)
        print(f"  {bt * 1e3:4.1f} ms: BER {r.ber * 100:5.2f}%, "
              f"TR {r.transmission_rate:6.1f} b/s")


if __name__ == "__main__":
    main()
