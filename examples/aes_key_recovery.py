"""End-to-end AES-128 key extraction through LeakyDSP.

A scaled-down version of the paper's Section IV-B case study: collect
power traces of an AES core through a co-located LeakyDSP sensor, run
the incremental CPA, watch the key rank collapse, and recover the
master key from the attacked last-round key.

Run: ``python examples/aes_key_recovery.py``
(a few seconds; uses 30 k traces at the best sensor placement)
"""

import numpy as np

from repro.attacks import CPAAttack, key_rank_bounds, scores_from_correlations
from repro.experiments import common
from repro.experiments.table1_traces import placement_acquisition
from repro.runtime import Engine
from repro.victims.aes.key_schedule import expand_key


def main() -> None:
    secret_key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")  # FIPS-197
    n_traces = 30_000

    print(f"collecting {n_traces} traces at placement P6 (best) ...")
    traces = Engine().collect(
        placement_acquisition("P6"), n_traces, key=secret_key, seed=11
    )
    print(f"trace matrix: {traces.traces.shape}, "
          f"AES @ {traces.metadata['aes_frequency_hz']/1e6:.0f} MHz, "
          f"sensor @ {traces.metadata['sensor_frequency_hz']/1e6:.0f} MHz")

    hw = common.make_hw_model()
    window = common.last_round_window(hw, traces.n_samples)
    attack = CPAAttack(traces.n_samples, sample_window=window)
    true_k10 = expand_key(secret_key)[10]

    print("\ntraces   log2 key-rank (lower..upper)   bytes correct")
    for checkpoint in (2_000, 5_000, 10_000, 20_000, 30_000):
        start = attack.n_traces
        attack.add_traces(
            traces.traces[start:checkpoint], traces.ciphertexts[start:checkpoint]
        )
        peaks = attack.peak_correlations()
        scores = scores_from_correlations(peaks, attack.n_traces)
        lo, hi = key_rank_bounds(scores, true_k10)
        correct = int(np.sum(attack.best_guesses() == true_k10))
        print(f"{checkpoint:6d}   {lo:6.1f} .. {hi:6.1f}             {correct:2d}/16")

    recovered = attack.recover_master_key()
    print(f"\nrecovered master key: {bytes(recovered).hex()}")
    print(f"true master key:      {secret_key.hex()}")
    print(f"full key recovered: {bytes(recovered) == secret_key}")


if __name__ == "__main__":
    main()
