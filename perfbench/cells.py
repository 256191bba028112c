"""The Tab.-I grid: its four cells, the seeded inputs and the verdict oracle.

A *cell* is one Fig.-5 methodology run,
``UpecMethodology(soc, UpecScenario(secret_in_cache=True)).run(k=2)``,
on one design variant in the formal geometry.  A *grid pass* runs the
four cells one after the other (a closed loop with one client: the next
cell starts when the previous verdict is in).

The seed picks the order of the four cells.  The order matters on the
engine workloads: ``secure`` and ``pmp_bug`` share proof obligations
(and so do ``orc`` and ``meltdown``), so whichever runs first pays for
them and the other reuses them from the proof cache or the broker's
memo.  A run's passes alternate the seed's order and its reverse.

This module imports nothing from the program, so its oracle can be
tested on synthetic results.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Optional

VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")
#: Cells bound by UNSAT proofs (expected ``secure_bounded``).
PROOF_CELLS = ("secure", "pmp_bug")
#: Cells bound by SAT queries with refinement (expected ``insecure``).
ALERT_CELLS = ("orc", "meltdown")
#: The proof window.  ``secure`` at k=3 takes about 100 s on one core.
K = 2

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def cell_order(seed: int) -> List[str]:
    """The seed's order of the four cells."""
    return random.Random(seed).sample(VARIANTS, len(VARIANTS))


def signature(result: Any) -> Dict[str, Any]:
    """What must not change across solving paths: verdict, iterations,
    removed registers, P-alert frames and the L-alert's frame and
    registers.  ``result`` is a ``MethodologyResult``."""
    l_alert = result.l_alert
    return {
        "verdict": result.verdict,
        "iterations": result.iterations,
        "removed_regs": list(result.removed_regs),
        "p_alert_frames": [alert.frame for alert in result.p_alerts],
        "l_alert": None if l_alert is None else {
            "frame": l_alert.frame,
            "regs": list(l_alert.diff_reg_names()),
        },
    }


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Dict[str, Any]]:
    """The engine-path signature of each cell (the ``ProofEngine(jobs=1)``
    oracle that the repository's differential tests also use)."""
    with open(path) as handle:
        return json.load(handle)["signatures"]


def check_cell(variant: str, sig: Optional[Dict[str, Any]],
               expected: Dict[str, Any], exact: bool = True,
               error: Optional[str] = None) -> List[str]:
    """Problems with one cell's outcome; empty means the cell passed.

    ``expected`` is the cell's signature from :func:`load_expected`.
    With ``exact`` (the engine workloads) the outcome must match it bit
    for bit; without it only the verdict and the L-alert's presence
    within the window are checked (the default solving path, whose
    refinement history differs)."""
    if error is not None:
        return [f"{variant}: raised {error}"]
    if sig is None:
        return [f"{variant}: no result"]
    problems = []
    want = expected["verdict"]
    if sig["verdict"] != want:
        problems.append(f"{variant}: verdict {sig['verdict']!r}, "
                        f"expected {want!r}")
    elif expected["l_alert"] is not None:
        l_alert = sig["l_alert"]
        if l_alert is None or not 1 <= l_alert["frame"] <= K:
            problems.append(f"{variant}: {want} without an L-alert "
                            f"at a frame <= {K}")
    if exact and sig != expected:
        fields = sorted(key for key in set(sig) | set(expected)
                        if sig.get(key) != expected.get(key))
        problems.append(f"{variant}: signature differs in "
                        f"{', '.join(fields)}")
    return problems
