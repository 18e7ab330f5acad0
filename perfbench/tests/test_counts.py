"""The benchmark's exact counts repeat exactly.

The per-layer counts `ir.oL.rules`, `ir.oL.atoms` and `sqlgen.sql_bytes.*`
are compared between commits as counts, which holds only if compiling a
program always gives the same IR and SQL. `repro.perfbench.Counts` compiles
every program of every workload at O0..O4 on both SQL dialects twice in one
JVM and fails if the two reports differ; this test runs it in two JVMs and
compares their reports, SQL digests included.

    python3 perfbench/tests/test_counts.py
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

PROGRAMS = 22 + 8
LEVELS = 5
DIALECTS = 2


class CountsRepeat(unittest.TestCase):
    def report(self, cp):
        r = subprocess.run(["java", "-Xmx1g", "-Xss8m", "-cp", cp, "repro.perfbench.Counts"],
                           capture_output=True, text=True, cwd=run.ROOT)
        self.assertEqual(r.returncode, 0, r.stderr)
        return r.stdout.splitlines()

    def test_counts_and_sql_identical_within_and_across_runs(self):
        cp, _ = run.build()
        first, second = self.report(cp), self.report(cp)
        self.assertEqual(len(first), PROGRAMS * LEVELS * DIALECTS)
        self.assertEqual(first, second)


if __name__ == "__main__":
    unittest.main()
