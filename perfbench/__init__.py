"""Host-normalized benchmark of the ``repro`` package.

One command (``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``) runs one of three workloads against the
program in ``src/`` and prints its metrics as the last line of standard
output. See ``perfbench/WHERE_THE_TIME_GOES.md`` for what each workload
exercises and how steady the figures are.
"""
