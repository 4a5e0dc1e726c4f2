"""Measure the first-build baselines frozen into tests/test_acceptance.py.

Run once after any intentional algorithm change, then paste the printed
dictionaries over the frozen constants in the acceptance module:

    python tools/freeze_baselines.py

The package is imported from the ``src/`` of the checkout this file lives
in.  Everything here is seeded, so reruns on the same code print identical
numbers.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_acceptance as acc  # noqa: E402


def main() -> None:
    print("# composition sandwich constants (criterion 4)")
    consts = acc.measure_composition_constants()
    print("COMPOSITION_CONSTANTS = {")
    for label, (c1, c2) in consts.items():
        print(f'    "{label}": ({c1!r}, {c2!r}),')
    print("}")

    print("\n# smooth-game / converse-Jensen frontiers (criterion 5)")
    frontier = acc.measure_frontiers()
    print("FRONTIER_BASELINES = {")
    for label, vals in frontier.items():
        print(f'    "{label}": {vals!r},')
    print("}")

    print("\n# greedy vs brute-force ratios (criterion 6)")
    ratios = acc.measure_greedy_ratios()
    print("GREEDY_RATIO_BASELINES = {")
    for label, value in ratios.items():
        print(f'    "{label}": {value!r},')
    print("}")

    print("\n# bandit benchmark ratios (criterion 10)")
    bandit = acc.measure_bandit_baselines()
    print("BANDIT_BASELINES = {")
    for label, value in bandit.items():
        print(f'    "{label}": {value!r},')
    print("}")


if __name__ == "__main__":
    main()
