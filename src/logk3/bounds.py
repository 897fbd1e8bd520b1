"""Effective torsion bounds and the uniform order bound, exactly over Z.

The chain of constants: a prime-power torsion bound per prime (with the
p = 2, 3 constants configurable because only the p > 3 inequality has a
stated formula), a composite torsion bound N̂(m) as the product over primes
of the largest admissible prime power, and the uniform bound
2¹⁴ · N̂(240m)² on the order of the relevant Brauer quotient.

N̂(m) is finite and exactly defined for every m, but its literal decimal
value explodes: already the prime cap B(240) has 131 digits, so the full
product can never be materialised.  ``TorsionBound`` therefore carries the
exact description (m, prime cap, per-prime rule) and evaluates on demand,
either fully when the cap is small enough or restricted to an explicit
prime window; every evaluation is an exact integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# full evaluation is refused above this prime cap; ~4e6 keeps the sieve and
# the product comfortably in memory while covering m = 1 and m = 2
FEASIBLE_PRIME_CAP = 4_000_000

# evaluations whose value could pass this many decimal digits are refused
# before any product is formed; the largest routine one (m = 1 over the
# primes up to 8320) has about 275k digits
MAX_VALUE_DIGITS = 1_000_000


class FeasibilityError(RuntimeError):
    """Evaluating the requested bound would not fit in memory or time."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sieve(cap: int) -> list[int]:
    if cap < 2:
        return []
    marks = bytearray([1]) * (cap + 1)
    marks[0] = marks[1] = 0
    p = 2
    while p * p <= cap:
        if marks[p]:
            marks[p * p :: p] = bytearray((cap - p * p) // p + 1)
        p += 1
    return [i for i in range(cap + 1) if marks[i]]


def _check_size(bits: int) -> None:
    """Refuse a value of at most ``bits`` bits if it could pass the limit."""
    digits = bits * 30103 // 100000 + 1
    if digits > MAX_VALUE_DIGITS:
        raise FeasibilityError(
            f"the value could have {digits} digits, over the "
            f"{MAX_VALUE_DIGITS}-digit limit - narrow the prime window"
        )


def _product(values: list[int]) -> int:
    # balanced pairwise products keep the big-integer sizes even
    if not values:
        return 1
    layer = values
    while len(layer) > 1:
        nxt = [a * b for a, b in zip(layer[::2], layer[1::2])]
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def merel_prime_bound(m: int) -> int:
    """Bound on primes dividing torsion orders over a degree-m field."""
    if m < 1:
        raise ValueError("the field degree must be a positive integer")
    return m ** (3 * m * m)


@dataclass(frozen=True)
class BoundConfig:
    """Optional constants for the unstated p = 2, 3 prime-power bounds."""

    parent_constant_p2: int | None = None
    parent_constant_p3: int | None = None

    def __post_init__(self) -> None:
        for value in (self.parent_constant_p2, self.parent_constant_p3):
            if value is not None and value < 1:
                raise ValueError("override constants must be positive")


@dataclass(frozen=True)
class ParentBound:
    """One prime-power cap, flagged when its constant is not verified."""

    value: int
    unverified_constant: bool


def _parent_formula(m: int) -> int:
    return 65 * (3**m - 1) * (2 * m) ** 6


def parent_prime_power_bound(
    m: int, p: int, config: BoundConfig = BoundConfig()
) -> ParentBound:
    """Cap on p-power torsion orders over a degree-m field.

    Stated for p > 3; for p in {2, 3} a configured override is used when
    present, otherwise the p > 3 formula stands in, marked unverified.
    """
    if m < 1:
        raise ValueError("the field degree must be a positive integer")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 and config.parent_constant_p2 is not None:
        return ParentBound(config.parent_constant_p2, False)
    if p == 3 and config.parent_constant_p3 is not None:
        return ParentBound(config.parent_constant_p3, False)
    return ParentBound(_parent_formula(m), p in (2, 3))


@dataclass(frozen=True)
class TorsionBound:
    """Exact description of N̂(m): which primes occur and how they are capped.

    ``prime_cap`` is the exact integer B(m) bounding the primes in the
    product.  ``evaluate`` computes the product of the largest admissible
    prime powers, optionally over a restricted prime set; refusal instead
    of approximation when the full product cannot be represented.
    """

    m: int
    prime_cap: int
    config: BoundConfig = field(default=BoundConfig())

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.config.parent_constant_p2 is None:
            out.append("p2-constant-unverified")
        if self.config.parent_constant_p3 is None:
            out.append("p3-constant-unverified")
        return tuple(out)

    @property
    def evaluable(self) -> bool:
        return self.prime_cap <= FEASIBLE_PRIME_CAP

    def max_power(self, p: int) -> int:
        """Largest power of p admitted by the per-prime cap."""
        cap = parent_prime_power_bound(self.m, p, self.config).value
        power = 1
        while power * p <= cap:
            power *= p
        return power

    def evaluate(
        self,
        restrict_cap: int | None = None,
        restrict_primes=None,
    ) -> int:
        """The product, exactly; restrictions shrink the prime window."""
        if restrict_primes is not None:
            primes = []
            for p in restrict_primes:
                if not _is_prime(p):
                    raise ValueError(f"{p} is not prime")
                if p <= self.prime_cap:
                    primes.append(p)
        else:
            cap = self.prime_cap
            if restrict_cap is not None:
                cap = min(cap, restrict_cap)
            if cap > FEASIBLE_PRIME_CAP:
                digits = cap.bit_length() * 30103 // 100000 + 1
                raise FeasibilityError(
                    f"the prime window extends to a {digits}-digit cap; the "
                    "product over every prime in it cannot be materialised - "
                    "evaluate with restrict_cap or restrict_primes"
                )
            primes = _sieve(cap)
        # each factor is at most its prime's cap, the p > 3 formula for every
        # prime but 2 and 3, whose constants may be overridden
        general = _parent_formula(self.m).bit_length()
        small = {
            p: parent_prime_power_bound(self.m, p, self.config).value.bit_length()
            for p in (2, 3)
        }
        _check_size(sum(small.get(p, general) for p in primes))
        return _product([self.max_power(p) for p in primes])

    @property
    def value(self) -> int:
        return self.evaluate()

    def as_json_dict(self) -> dict:
        return {
            "m": self.m,
            "prime_cap": self.prime_cap,
            "evaluable": self.evaluable,
            "flags": list(self.flags),
        }


def torsion_bound(m: int, config: BoundConfig = BoundConfig()) -> TorsionBound:
    """N̂(m): per-prime maximal torsion orders multiplied over all primes."""
    if m < 1:
        raise ValueError("the field degree must be a positive integer")
    return TorsionBound(m=m, prime_cap=_parent_formula(m), config=config)


# the two order bounds feeding the uniform constant: 64 on the lattice
# side and 256 on the quotient side, so 2^14 = 64 * 256
LATTICE_SIDE_BOUND = 64
QUOTIENT_SIDE_BOUND = 256
UNIFORM_CONSTANT = LATTICE_SIDE_BOUND * QUOTIENT_SIDE_BOUND
LINES_MAX = 240


@dataclass(frozen=True)
class UniformBound:
    """The bound 2¹⁴ · N̂(240m)² with its ingredients kept visible."""

    m: int
    extension_degree: int
    constant: int
    exponent: int
    torsion: TorsionBound

    def identity_holds(self) -> bool:
        """Structural identity: constant 2¹⁴ split as 64·256, torsion at 240m."""
        return (
            self.constant == LATTICE_SIDE_BOUND * QUOTIENT_SIDE_BOUND == 2**14
            and self.exponent == 2
            and self.extension_degree == LINES_MAX * self.m
            and self.torsion == torsion_bound(self.extension_degree, self.torsion.config)
        )

    def evaluate(
        self,
        restrict_cap: int | None = None,
        restrict_primes=None,
    ) -> int:
        t = self.torsion.evaluate(restrict_cap, restrict_primes)
        _check_size(self.constant.bit_length() + self.exponent * t.bit_length())
        return self.constant * t**self.exponent

    def as_json_dict(self) -> dict:
        return {
            "m": self.m,
            "extension_degree": self.extension_degree,
            "constant": self.constant,
            "exponent": self.exponent,
            "lattice_side_bound": LATTICE_SIDE_BOUND,
            "quotient_side_bound": QUOTIENT_SIDE_BOUND,
            "torsion_bound": self.torsion.as_json_dict(),
            "flags": list(self.torsion.flags),
        }


def brauer_uniform_bound(
    m: int, config: BoundConfig = BoundConfig()
) -> UniformBound:
    """Uniform bound on the Brauer quotient order over degree-m fields."""
    if m < 1:
        raise ValueError("the field degree must be a positive integer")
    degree = LINES_MAX * m
    return UniformBound(
        m=m,
        extension_degree=degree,
        constant=UNIFORM_CONSTANT,
        exponent=2,
        torsion=torsion_bound(degree, config),
    )


def torsion_bound_monotone(m1: int, m2: int, config: BoundConfig = BoundConfig()) -> bool:
    """Certify N̂(m1) ≤ N̂(m2) for m1 ≤ m2 without evaluating the products.

    The prime window grows with m and each per-prime cap grows with m, so
    every factor of the smaller product divides into a factor at least as
    large in the bigger one; the remaining primes contribute factors ≥ 2.
    """
    if m1 > m2:
        return torsion_bound_monotone(m2, m1, config)
    a = torsion_bound(m1, config)
    b = torsion_bound(m2, config)
    if a.prime_cap > b.prime_cap:
        return False
    # per-prime growth follows from the formula; overrides are m-independent
    for p in (2, 3, 5, 7):
        if a.max_power(p) > b.max_power(p):
            return False
    return _parent_formula(m1) <= _parent_formula(m2)
