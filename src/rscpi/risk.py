"""The entropic-risk parameter of the tilted recursions.

The certainty equivalent of a random return X under risk parameter lambda is
(1/lambda) * log E[exp(lambda X)]; lambda > 0 weights high outcomes (risk
seeking), and lambda -> 0 recovers the plain expectation. Below
ZERO_THRESHOLD the evaluation and the solver take the plain expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

ZERO_THRESHOLD = 1e-9


@dataclass(frozen=True)
class RiskParameter:
    lam: float

    @property
    def is_neutral(self) -> bool:
        return abs(self.lam) < ZERO_THRESHOLD
