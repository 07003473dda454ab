"""Regenerate ``perfbench/pinned.json``: the reference outputs the runs check.

Run ``python3 perfbench/pin.py`` from the repository root, on a commit
whose outputs are known good, only when an output changes on purpose
(a table, a fuzz spec, a served body). It takes a few minutes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import fuzz, paper, program, serve  # noqa: E402
from perfbench.harness import PINNED, digest  # noqa: E402


def pin_paper() -> dict[str, str]:
    from repro.experiments import registry

    pinned = {}
    for exp_id in paper.EXPERIMENTS:
        program.reset_process_caches()
        experiment = registry.get(exp_id)
        table = experiment.format(experiment.run(workers=1))
        pinned[exp_id] = hashlib.sha256(table.encode("utf-8")).hexdigest()
    return pinned


def pin_fuzz() -> dict:
    from repro.fuzz.runner import FuzzCase, run_case
    from repro.fuzz.sampler import SpecSampler

    sampler = SpecSampler(fuzz.MASTER_SEED)
    hashes = []
    for index in range(fuzz.CASES):
        result = run_case(FuzzCase(index, sampler.case_spec(index)))
        if not result.ok:
            raise SystemExit(f"fuzz case {index} fails: {result.failures}")
        hashes.append(result.case_hash[:16])
    return {"master_seed": fuzz.MASTER_SEED, "case_hashes": hashes}


def pin_serve() -> dict:
    from repro.scenario.spec import ScenarioSpec
    from repro.serve.service import InlinePool, ScenarioService, report_bytes

    base = serve._base_specs()

    def body(ref: tuple[str, int]) -> str:
        spec = ScenarioSpec.from_dict(serve.spec_payload(base, ref))
        return report_bytes(spec).decode("utf-8")

    async def rejected() -> list[list]:
        service = ScenarioService(pool=InlinePool())
        answers = []
        for raw in serve.MALFORMED:
            result = await service.submit_payload(raw)
            if result.status != 400:
                raise SystemExit(f"malformed body {raw!r} answered {result.status}")
            answers.append([result.status, digest(result.body.decode("utf-8"))])
        return answers

    return {
        "new": [digest(body(("n", i))) for i in range(serve.NEW_SPECS)],
        "prefill": [body(("p", j)) for j in range(serve.PREFILL_SPECS)],
        "malformed": asyncio.run(rejected()),
    }


def main() -> None:
    program.use_source_tree()
    pinned = {"paper": pin_paper(), "fuzz": pin_fuzz(), "serve": pin_serve()}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")


if __name__ == "__main__":
    main()
