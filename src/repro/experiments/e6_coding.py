"""E6 — Figure 9 / §5 coding scheme: overhead and attack resistance.

Three regenerated artifacts:

1. **Overhead table** — exact chain-code length ``K`` vs the paper's
   bound ``k + 2 log2 k + 2`` vs the I-code's ``2k``, over message sizes.
2. **Unidirectional detection** — every 0→1 flip pattern against a coded
   message is detected (Monte-Carlo over random messages and patterns,
   plus the all-zero-forgery counterexample against the literal,
   sentinel-free construction).
3. **Sub-bit attack success** — Monte-Carlo cancellation attacks against
   1-blocks succeed at rate ``~1/(2^L - 1)``, matching
   ``attack_success_probability`` (the paper's ``2^-L``); injection
   attacks on 0-blocks always succeed at the sub-bit level and are then
   caught by the bit-level chain code.

A pure coding-level study (no grid, placement, or protocol): its sweep
points stay plain parameter dataclasses rather than
:class:`~repro.scenario.ScenarioSpec` instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.coding.bits import random_bits
from repro.coding.chain import ChainCode, demonstrate_all_zero_forgery
from repro.coding.icode import ICode
from repro.coding.params import (
    attack_success_probability,
    coded_length,
    coded_length_upper_bound,
)
from repro.coding.subbit import SubbitCodec
from repro.runner.parallel import ResultCache
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import format_table
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class OverheadRow:
    k: int
    chain_K: int
    paper_bound: float
    icode_K: int
    chain_overhead: float
    icode_overhead: float


@dataclass(frozen=True)
class DetectionResult:
    trials: int
    flips_detected: int
    literal_allzero_forgery_passes: bool

    @property
    def detection_rate(self) -> float:
        return self.flips_detected / self.trials if self.trials else 1.0


@dataclass(frozen=True)
class CancellationRow:
    block_length: int
    trials: int
    successes: int
    measured_rate: float
    analytic_rate: float


@dataclass(frozen=True)
class CodingResult:
    overhead: tuple[OverheadRow, ...]
    detection: DetectionResult
    cancellation: tuple[CancellationRow, ...]


def overhead_rows(ks: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 1024)) -> tuple[OverheadRow, ...]:
    rows = []
    for k in ks:
        chain_k = coded_length(k)
        rows.append(
            OverheadRow(
                k=k,
                chain_K=chain_k,
                paper_bound=coded_length_upper_bound(k),
                icode_K=ICode(k).coded_length,
                chain_overhead=chain_k / k,
                icode_overhead=2.0,
            )
        )
    return tuple(rows)


def run_detection(*, k: int = 32, trials: int = 2000, seed: int = 3) -> DetectionResult:
    """Random 0→1 flip patterns against the sentinel chain code."""
    rng = RngRegistry(seed).stream("detection")
    code = ChainCode(k)
    detected = 0
    for _ in range(trials):
        message = random_bits(k, rng)
        word = list(code.encode(message))
        zero_positions = [i for i, bit in enumerate(word) if bit == 0]
        if not zero_positions:
            detected += 1  # nothing to flip; count as trivially detected
            continue
        flip_count = rng.randint(1, len(zero_positions))
        for position in rng.sample(zero_positions, flip_count):
            word[position] = 1
        if not code.verify(tuple(word)):
            detected += 1
    original, forged = demonstrate_all_zero_forgery(k)
    literal = ChainCode(k, sentinel=False)
    return DetectionResult(
        trials=trials,
        flips_detected=detected,
        literal_allzero_forgery_passes=literal.verify(forged) and forged != original,
    )


@dataclass(frozen=True)
class CancellationPoint:
    """One block length's Monte-Carlo cancellation study (picklable)."""

    block_length: int
    trials: int
    seed: int


def _run_cancellation_point(point: CancellationPoint) -> CancellationRow:
    """Monte-Carlo one block length (worker-safe).

    Streams are named exactly as the historical serial loop named them —
    ``("encode", L)`` and ``("attack", L)`` off ``RngRegistry(seed)`` — so
    results are bit-identical regardless of which worker runs the point.

    A trial is the channel's XOR algebra on packed blocks: the victim's
    1-block (``encode_bit(1)``) superposed with the adversary's guess
    (``cancel_attack``) is received silent, i.e. decodes to 0, iff the XOR
    is 0. Each stream is drawn exactly as those methods draw it.
    """
    length = point.block_length
    registry = RngRegistry(point.seed)
    codec = SubbitCodec(block_length=length, rng=registry.stream("encode", length))
    encode_rng = codec.rng
    attack_rng = registry.stream("attack", length)
    draw = codec.draw_block
    successes = 0
    for _ in range(point.trials):
        if not draw(encode_rng) ^ draw(attack_rng):
            successes += 1
    return CancellationRow(
        block_length=length,
        trials=point.trials,
        successes=successes,
        measured_rate=successes / point.trials,
        analytic_rate=attack_success_probability(length),
    )


def run_cancellation(
    *,
    block_lengths: tuple[int, ...] = (2, 4, 6, 8),
    trials: int = 30000,
    seed: int = 9,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[CancellationRow, ...]:
    """Monte-Carlo 1→0 cancellation attacks vs the analytic rate."""
    points = [
        CancellationPoint(block_length=length, trials=trials, seed=seed)
        for length in block_lengths
    ]
    result = parallel_sweep(
        points,
        _run_cancellation_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    return tuple(result.results)


def run_coding(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
    **kwargs,
) -> CodingResult:
    return CodingResult(
        overhead=overhead_rows(),
        detection=run_detection(),
        cancellation=run_cancellation(
            workers=workers, cache=cache, progress=progress, **kwargs
        ),
    )


def run(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> CodingResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    return run_coding(workers=workers, cache=cache, progress=progress)


def table(result: CodingResult) -> str:
    overhead = format_table(
        ["k", "chain K", "paper bound k+2logk+2", "I-code 2k",
         "chain K/k", "I-code K/k"],
        [
            [r.k, r.chain_K, r.paper_bound, r.icode_K,
             r.chain_overhead, r.icode_overhead]
            for r in result.overhead
        ],
        title="E6a - coding overhead: chain code k+O(log k) vs I-code 2k",
    )
    d = result.detection
    detection = format_table(
        ["quantity", "paper", "measured"],
        [
            ["random 0->1 tampering detected", "always", f"{d.flips_detected}/{d.trials}"],
            ["literal all-zero forgery passes verification",
             "(implicit gap)", d.literal_allzero_forgery_passes],
        ],
        title="E6b - unidirectional error detection (sentinel chain code)",
    )
    cancellation = format_table(
        ["L", "trials", "successes", "measured", "analytic 1/(2^L-1)"],
        [
            [r.block_length, r.trials, r.successes,
             r.measured_rate, r.analytic_rate]
            for r in result.cancellation
        ],
        title="E6c - sub-bit 1->0 cancellation attack success rate",
    )
    return "\n\n".join([overhead, detection, cancellation])


def main() -> None:  # pragma: no cover - CLI convenience
    print(table(run_coding()))


if __name__ == "__main__":  # pragma: no cover
    main()
