"""Affine array subscripts.

Memory operations address arrays through affine functions of the loop
induction variable: ``coeff * i + offset + sum(sym_coeff * sym)`` where the
``sym`` terms are loop-invariant symbolic values (outer-loop indices,
runtime parameters).  Keeping subscripts in this closed form — rather than
as explicit address arithmetic — is what makes exact dependence testing
possible; explicit addressing operations are materialized later, during
lowering to machine operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class AffineExpr:
    """``coeff * i + offset + sum(symbols[name] * name)``."""

    coeff: int = 0
    offset: int = 0
    symbols: tuple[tuple[str, int], ...] = field(default=())

    def __post_init__(self) -> None:
        # Normalize: sorted, no zero coefficients.  Most subscripts have
        # no symbols, and the empty tuple is already normal.
        if self.symbols != ():
            syms = tuple(sorted((n, c) for n, c in self.symbols if c != 0))
            object.__setattr__(self, "symbols", syms)

    @staticmethod
    def of(coeff: int = 0, offset: int = 0, **symbols: int) -> AffineExpr:
        return AffineExpr(coeff, offset, tuple(symbols.items()))

    @property
    def is_constant(self) -> bool:
        return self.coeff == 0 and not self.symbols

    @property
    def is_loop_invariant(self) -> bool:
        """True when the subscript does not vary with the loop index."""
        return self.coeff == 0

    @property
    def has_symbols(self) -> bool:
        return bool(self.symbols)

    def shifted(self, delta: int) -> AffineExpr:
        """The subscript for iteration ``i + delta``: substitutes i := i + delta."""
        return AffineExpr(self.coeff, self.offset + self.coeff * delta, self.symbols)

    def plus(self, delta: int) -> AffineExpr:
        """The subscript displaced by a constant number of elements."""
        return AffineExpr(self.coeff, self.offset + delta, self.symbols)

    def symbols_match(self, other: AffineExpr) -> bool:
        return self.symbols == other.symbols

    def evaluate(self, i: int, env: dict[str, int] | None = None) -> int:
        value = self.coeff * i + self.offset
        for name, c in self.symbols:
            if env is None or name not in env:
                raise KeyError(f"no binding for symbolic subscript term {name!r}")
            value += c * env[name]
        return value

    def __str__(self) -> str:
        parts: list[str] = []
        if self.coeff == 1:
            parts.append("i")
        elif self.coeff == -1:
            parts.append("-i")
        elif self.coeff != 0:
            parts.append(f"{self.coeff}*i")
        for name, c in self.symbols:
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.offset != 0 or not parts:
            parts.append(str(self.offset))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@dataclass(frozen=True)
class Subscript:
    """A (possibly multi-dimensional) array subscript.

    Dimensions are listed from outermost to innermost; ``dims[-1]`` is the
    fastest-varying (unit-stride) dimension for Fortran-style layouts we
    model.  Contiguity for vectorization is judged on the last dimension.
    """

    dims: tuple[AffineExpr, ...]

    @staticmethod
    def of(*dims: AffineExpr) -> Subscript:
        return Subscript(tuple(dims))

    @staticmethod
    def linear(coeff: int = 1, offset: int = 0, **symbols: int) -> Subscript:
        return Subscript((AffineExpr.of(coeff, offset, **symbols),))

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def innermost(self) -> AffineExpr:
        return self.dims[-1]

    @property
    def is_unit_stride(self) -> bool:
        """Unit stride in the innermost dimension, invariant elsewhere."""
        if self.dims[-1].coeff != 1:
            return False
        return all(d.coeff == 0 for d in self.dims[:-1])

    @property
    def is_loop_invariant(self) -> bool:
        return all(d.coeff == 0 for d in self.dims)

    def shifted(self, delta: int) -> Subscript:
        return Subscript(tuple(d.shifted(delta) for d in self.dims))

    def plus_innermost(self, delta: int) -> Subscript:
        return Subscript(self.dims[:-1] + (self.dims[-1].plus(delta),))

    def evaluate(
        self,
        i: int,
        dim_sizes: tuple[int, ...],
        env: dict[str, int] | None = None,
    ) -> int:
        """Flat element index for iteration ``i`` (row-major over ``dims``)."""
        if len(dim_sizes) != self.rank:
            raise ValueError(
                f"subscript rank {self.rank} does not match array rank {len(dim_sizes)}"
            )
        flat = 0
        for expr, size in zip(self.dims, dim_sizes):
            flat = flat * size + expr.evaluate(i, env)
        return flat

    def __str__(self) -> str:
        return "[" + ", ".join(str(d) for d in self.dims) + "]"
