#!/usr/bin/env python3
"""Regenerate ``perfbench/references.npz`` from the current program.

Run from the repository root: ``python3 perfbench/make_references.py``.
Each bank cloud is run alone (batch of one) through the workload's
pipeline; the benchmark then checks every frame and served request
against these summaries.  Only regenerate when a change is meant to
alter the models' outputs, and say so in the change.
"""

from __future__ import annotations

from run import add_source_path


def main() -> None:
    add_source_path()
    import reference
    import workloads

    summaries = {}
    for name in workloads.WORKLOADS:
        pipe = workloads.build_pipeline(name)
        summaries[name] = [
            reference.summarize(pipe.infer(cloud).logits[0])
            for cloud in workloads.bank(name)
        ]
        print(f"{name}: {len(summaries[name])} clouds")
    reference.save(summaries)


if __name__ == "__main__":
    main()
