"""Fail unless a tier-1 JUnit report fails exactly the tests known to fail.

    python .github/scripts/check_tier1.py tier1.xml

Criterion 6 keeps the paper's stated bound for semiprime moduli, which is
wrong (see the README), so it must run and fail.  Any other failure or
error fails the check, and so does criterion 6 passing, being skipped or
being marked as an expected failure.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {"test_criterion_6_rsa_bound"}


def failing_tests(path):
    failing = set()
    for case in ET.parse(path).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(case.get("name"))
    return failing


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    failing = failing_tests(argv[1])
    if failing != EXPECTED_FAILURES:
        print(f"unexpected failures: {sorted(failing - EXPECTED_FAILURES)}")
        print(f"expected to fail but did not: {sorted(EXPECTED_FAILURES - failing)}")
        return 1
    print(f"tier-1 ok: only {sorted(failing)} failed, as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
