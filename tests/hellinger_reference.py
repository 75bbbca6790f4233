"""The Hellinger distance between two univariate normals, as a test helper over the library's array form.

Tailoring needs only ``changemodel._hellinger_arrays``, which takes the
means and standard deviations as arrays; the paper's criteria 02 and 03
state their claims for one pair of normals, which ``hellinger_normal``
takes as ``NormalParams``.
"""

from dataclasses import dataclass

from tailormon.changemodel import _hellinger_arrays


@dataclass(frozen=True)
class NormalParams:
    """Mean and standard deviation of a univariate normal."""

    mean: float
    sdev: float

    def __post_init__(self):
        if not self.sdev > 0.0:
            raise ValueError("sdev must be positive")


def hellinger_normal(p: NormalParams, q: NormalParams) -> float:
    """Hellinger distance between two univariate normals, in [0, 1].

    H^2 = 1 - sqrt(2*s1*s2 / (s1^2 + s2^2)) * exp(-(m1 - m2)^2 / (4*(s1^2 + s2^2)))

    Symmetric in its arguments, and symmetric in whether a variance is
    multiplied or divided by a factor. Zero exactly when p == q.
    """
    return float(_hellinger_arrays(p.mean, p.sdev, q.mean, q.sdev))
