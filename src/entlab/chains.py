"""Gapped spin-chain paths, exact ground-state transport, and entropy
tracking across a cut.

The chain is a transverse-field Ising model on an open chain,
H(s) = -J(s) sum sigma^z_i sigma^z_{i+1} - g(s) sum sigma^x_i, with J and g
polynomials in s in [0, 1].  Its matrices are real and written straight from
bit patterns: the ZZ bonds are diagonal and each field is a single-bit flip.
Each operator is diagonalised at most once, and all arithmetic is real: a
transport generator K = i R is held as its real matrix R.

H(s), H'(s) and every centred source commute with the global spin flip
prod_i X_i (the Z_2 symmetry of the TFIM), so each is block diagonal in the
flip's +1 and -1 eigenspaces.  H(s) and H'(s) have one bond J and one field
g on every site, so they also commute with the mirror i <-> n-1-i of the open
chain; a centred source, one field and one bond, does not.  The chain
builders return such operators, not ``HermitianOperator``s, and each is held
as coefficients: a centred source is a ``_SiteCouplings``, its bonds and
fields on sites, and H(s) and H'(s) are ``_UniformChain``s, their two
coefficients (J, g) on the terms sum ZZ and sum X.  Neither builds its
2^n matrix (``mat``) unless it is read.  The terms are cut into the four
exact (flip, mirror) sectors of about 2^(n-2), each in pair order
(``_PairOrder``), once per n and kept (``_chain_terms``), so a sector block
of H(s) is -J diag(z) - g X, with no 2^n matrix.  The spectrum of H(s) is
read from the four block decompositions (``sectors``).  The ground state
comes from the sector that holds the lowest level, the gap from the two
lowest levels across all four, and the gap quotients H'_mn / (E_m - E_n)
block by block, since entries between the sectors are zero.  So
``ground_state`` and ``adiabatic_generator`` accept only chain operators,
and ``locality_profile`` only the transport generator that the generator
builders return; anything else is a ValueError.  The path parameter s and
a centre site are numbers from outside the program (``input_number``): s in
[0, 1], the centre an integer site.

Along a path each grid point diagonalises the four blocks of H(s) once.  The
ground state, the gap and the tangent vector
d|psi>/ds = sum_{m != 0} |m><m|H'|psi>/(E_0 - E_m) (first-order perturbation
theory in the parallel-transport gauge) all come from them: in the sector
that holds psi = u e_0 the tangent is -u B e_0, B the gap quotients below,
and each of the two is taken into the 2^n basis once (``_sector_vector``).
The entropy rate across the cut is read off the Schmidt matrices of that
pair by the rate kernel the state rate uses (``rates._schmidt_rate``).
H' is a coefficient pair too, and H's eigenvectors diagonalise -J Z - g X, so
in each sector H'_mn = ((g'J - gJ') / g) <m|Z|n> for m != n: one product per
sector (``_sector_quotients``).  The reported norm of the generator,
||K|| = ||H'_mn / (E_m - E_n)|| in the eigenbasis, is the largest of the four
blocks' norms, each block's largest singular value (``_sector_norm``, by
Lanczos on S^T S for a block at least 192 wide, as every block is from
n = 10 on); no 2^n x 2^n matrix is formed.  The rate is checked against
the entropies on the grid.  The dense transport generator K(s) = i R(s) is
built only where a caller needs the operator itself
(``adiabatic_generator``, ``centered_generator_term``), and is held as the
real 2^n matrix R (``_TransportGenerator``).  It reads either source as its
coefficients, by one code path, and works per flip block in sector
coordinates: H's eigenvectors there are written from the two sectors'
blocks, the source times them is a row scaling for the bonds and a signed
row gather per field, and every matrix product has one of the two mirror
sectors' blocks, about 2^(n-2) wide, as a factor; only the butterfly
between the sectors and the flip block (``_PairOrder``) and one gather per
axis into the 2^n basis touch the whole.  Its locality is *measured* by
compressing R onto balls around a center site, each shell's norm read from
the shell's two flip blocks on its ball, taken from the shell's upper rows.

Dense only: K needs every eigenpair of H, so n_sites is capped at 12.  A
path point costs H(s)'s four sector decompositions, each of a block about
2^(n-2) wide, and one product per sector for the gap quotients.  The
decompositions are kept for the two most recently visited (n, J, g)
(``_chain_sectors``), so a centred term at a visited point costs only its
products in sector coordinates (``_flip_block_generator``).  A locality
profile costs its partial traces and, mostly, the Lanczos norms of its
widest shells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as _poly

from .operators import DEGENERACY_TOL, GAP_FLOOR, GAUGE_TOL, RATE_CHECK_ATOL, RATE_CHECK_RTOL
from .operators import input_keys, input_number, input_numbers, partial_trace_matrix
from .rates import _schmidt_rate

MAX_SITES = 12

__all__ = [
    "ChainPathSpec",
    "PathPoint",
    "LocalityProfile",
    "build_chain_hamiltonian",
    "chain_hprime",
    "ground_state",
    "adiabatic_generator",
    "centered_generator_term",
    "locality_profile",
    "entropy_along_path",
]


class GapCollapseError(RuntimeError):
    """Ground state degenerate within GAP_FLOOR; the path is not gapped."""


class TransportConsistencyError(RuntimeError):
    """The entropy rate from the transport generator disagrees with the
    entropies on the grid.  ``bundle`` holds the point s, both rates and the
    tolerance."""

    def __init__(self, message: str, bundle: dict):
        super().__init__(message)
        self.bundle = bundle


@dataclass(frozen=True)
class ChainPathSpec:
    """Open transverse-field Ising chain path with a cut splitting L|R.

    ``J`` and ``g`` are lists of polynomial coefficients in s, in ascending
    order; a callable is rejected.  ``n_sites`` and ``cut`` are integers;
    ``cut`` counts sites in L (1 <= cut < n_sites).  ``s_grid`` holds at
    least two points, strictly increasing in [0, 1].
    """

    n_sites: int
    cut: int
    J: tuple = (1.0,)
    g: tuple = (1.0,)
    s_grid: tuple = tuple(np.linspace(0.0, 1.0, 11))

    def __post_init__(self):
        for name in ("n_sites", "cut"):
            object.__setattr__(self, name, input_number(name, getattr(self, name), integer=True))
        if self.n_sites < 2:
            raise ValueError(f"n_sites = {self.n_sites} must be >= 2")
        if self.n_sites > MAX_SITES:
            raise ValueError(f"n_sites = {self.n_sites} beyond dense ceiling {MAX_SITES}")
        if not (1 <= self.cut < self.n_sites):
            raise ValueError(f"cut = {self.cut} must satisfy 1 <= cut < n_sites")
        grid = input_numbers("s_grid", self.s_grid, least=2)
        if any(s < 0.0 or s > 1.0 for s in grid):
            raise ValueError("s_grid points must lie in [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("s_grid must be strictly increasing")
        object.__setattr__(self, "s_grid", grid)
        object.__setattr__(self, "J", input_numbers("J", self.J, least=1))
        object.__setattr__(self, "g", input_numbers("g", self.g, least=1))

    def couplings(self, s: float) -> tuple[float, float]:
        return float(_poly.polyval(s, self.J)), float(_poly.polyval(s, self.g))

    def coupling_derivatives(self, s: float) -> tuple[float, float]:
        return tuple(float(_poly.polyval(s, _poly.polyder(c))) for c in (self.J, self.g))

    @classmethod
    def from_json(cls, obj: dict) -> "ChainPathSpec":
        input_keys("chain path", obj, ("n_sites", "cut", "J", "g", "s_grid"))
        # absent schedules and grid take the field defaults
        optional = {k: obj[k] for k in ("J", "g", "s_grid") if k in obj}
        return cls(n_sites=obj["n_sites"], cut=obj["cut"], **optional)


@dataclass
class PathPoint:
    s: float
    ground_energy: float
    gap: float
    ground_state: np.ndarray
    entropy_left: float
    rate_commutator: float
    rate_finite_difference: float
    K_norm: float


@dataclass
class LocalityProfile:
    """Operator-norm strength of the shell components of a chain operator.

    ``strengths[r]`` is the norm of the component supported on the ball of
    radius r around ``center`` but not on the ball of radius r-1.
    """

    center: int
    radii: np.ndarray
    strengths: np.ndarray


# ---------------------------------------------------------------------------
# Hamiltonian and ground state


def _tfim_matrix(n: int, bonds, fields) -> np.ndarray:
    """Real 2^n matrix of -sum_i bonds[i] Z_i Z_{i+1} - sum_i fields[i] X_i.

    Site i is bit n-1-i of the basis index (site 0 leftmost in the tensor
    product).  Z_i Z_{i+1} is +1 where the two bits agree and -1 where they
    differ; X_i flips bit n-1-i.
    """
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    zz = 1 - 2 * (bits[:, :-1] ^ bits[:, 1:])
    H = np.diag(-(zz @ np.asarray(bonds, dtype=float)))
    for i, f in enumerate(fields):
        H[idx, idx ^ (1 << (n - 1 - i))] = -f
    return H


# ---------------------------------------------------------------------------
# symmetry sectors
#
# Every matrix of the form above commutes with the global spin flip
# F = prod_i X_i, which maps basis index b to its complement
# 2^n - 1 - b.  With h = 2^(n-1), index r < h pairs with 2^n - 1 - r, so the
# upper half of the basis is the lower half's partners in reverse order.  In
# the basis (|r> + f |2^n - 1 - r>)/sqrt(2), r < h, a flip-symmetric M is
# block diagonal: one h x h flip block per sign f = F = +1, -1, with entries
# M[r, r'] + f M[r, 2^n - 1 - r'].
#
# A uniform chain (one bond J, one field g) also commutes with the mirror
# site i <-> n-1-i, which maps b to its bit reversal rev(b).  In flip block f
# the mirror is a signed involution of the folded index: it maps r to
# sign_r |partner_r>, with partner rev(r) and sign +1 if rev(r) < h, and
# partner 2^n - 1 - rev(r) and sign f otherwise.  So each flip block splits
# once more into mirror sectors m = +1, -1.  Sector m has one unit vector
# (|r> + m sign_r |partner_r>)/sqrt(2) per pair r < partner_r, and the
# vector |r> for each fixed point r = partner_r with m sign_r = +1.  In pair
# order (``_PairOrder``) the map from a flip block's two sectors, stacked,
# to the flip block is a butterfly on contiguous rows (``_sectors_to_flip``),
# and a sector block is read off P^T A P, A the flip block.  At n = 10 the
# four (f, m) blocks are 272, 240 (f = +1) and 256, 256 (f = -1) wide; at
# n = 2 the (+1, -1) block is empty.  This section is the only code that
# knows these layouts.

# (flip, mirror) signs of the four sectors; sector k lies in flip block k // 2
_SECTORS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def _fold(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The F = +1 and F = -1 blocks of a real flip-symmetric 2^n matrix."""
    h = m.shape[0] // 2
    a, b = m[:h, :h], m[:h, h:][:, ::-1]
    return a + b, a - b


def _unfold(u: np.ndarray, sign: float) -> np.ndarray:
    """Full-basis vectors (columns) of vectors ``u`` in flip block ``sign``."""
    return np.concatenate([u, sign * u[::-1]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class _PairOrder:
    """Flip-block coordinates of a 2^n chain in pair order: the indices
    r < partner_r of the mirror pairs, then their partners in the same order,
    then the fixed points with rev(r) = r and those with rev(r) = 2^n - 1 - r.
    Each sector's vectors are taken in the same order: its pairs, then its
    fixed points.  The m = +1 sector of flip block f holds the fixed points
    with sign_r = +1, the m = -1 sector those with sign_r = -1, so the two
    sectors' fixed points follow each other in the flip block as they do in
    its sectors, stacked.

    ``widths`` holds the width of the m = +1 sector of each flip block,
    ``partner_sign`` sign_r of each pair, per flip block; ``zz`` the value of
    Z_i Z_{i+1} at each flip coordinate; ``fields[i]`` the place of the
    coordinate that X_i maps each one to (X_0 with the flip's sign, the
    others with +1); ``position`` the place of each flip coordinate r.
    Every place is in pair order.
    """

    widths: tuple
    partner_sign: tuple
    zz: np.ndarray
    fields: tuple
    position: np.ndarray


@lru_cache(maxsize=None)
def _pair_order(dim: int) -> _PairOrder:
    """The ``_PairOrder`` of a 2^n = ``dim`` chain, kept for each n."""
    n, h = dim.bit_length() - 1, dim // 2
    r = np.arange(h)
    rev = ((r[:, None] >> np.arange(n)) & 1) @ (1 << np.arange(n - 1, -1, -1))
    upper = rev >= h
    partner = np.where(upper, dim - 1 - rev, rev)
    pair, fixed = r < partner, r == partner
    order = np.concatenate([r[pair], partner[pair], r[fixed & ~upper], r[fixed & upper]])
    position = np.argsort(order)
    pairs, lower = np.count_nonzero(pair), np.count_nonzero(fixed & ~upper)
    bits = (order[:, None] >> np.arange(n - 1, -1, -1)) & 1
    images = [h - 1 - order] + [order ^ (1 << (n - 1 - i)) for i in range(1, n)]
    layout = _PairOrder(
        widths=(h - pairs, pairs + lower),
        partner_sign=tuple(np.where(upper[pair], flip, 1.0) for flip in (1.0, -1.0)),
        zz=(1 - 2 * (bits[:, :-1] ^ bits[:, 1:])).astype(float),
        fields=tuple(position[image] for image in images),
        position=position,
    )
    for a in (*layout.partner_sign, layout.zz, *layout.fields, position):
        a.setflags(write=False)
    return layout


_HALF_SQRT2 = np.sqrt(0.5)


def _sectors_to_flip(c: np.ndarray, out: np.ndarray, width: int, sign: np.ndarray) -> np.ndarray:
    """out = P c along axis 0: the rows of c, the vectors of a flip block's
    two mirror sectors stacked (the first ``width`` rows the m = +1 sector's,
    each sector in pair order), as flip coordinates in pair order.  A pair r
    with sector rows a, b becomes (a + b)/sqrt(2) at r and
    sign_r (a - b)/sqrt(2) at its partner; a fixed point keeps its row."""
    m = len(sign)
    a, b = c[:m], c[width : width + m]
    np.multiply(a + b, _HALF_SQRT2, out=out[:m])
    np.multiply(a - b, (_HALF_SQRT2 * sign)[:, None], out=out[m : 2 * m])
    out[2 * m : m + width] = c[m:width]
    out[m + width :] = c[width + m :]
    return out


def _flip_eigenvectors(u0: np.ndarray, u1: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """P blockdiag(u0, u1), the vectors of a flip block's two mirror sectors
    as ``_sectors_to_flip`` maps them, written from the two blocks: the pair
    rows of u0 and u1 side by side, times 1/sqrt(2) and, at the partners,
    sign_r and -sign_r, then each block's fixed-point rows beside zeros."""
    m, width = len(sign), len(u0)
    U = np.empty((width + len(u1),) * 2)
    scale = (_HALF_SQRT2 * sign)[:, None]
    np.multiply(u0[:m], _HALF_SQRT2, out=U[:m, :width])
    np.multiply(u1[:m], _HALF_SQRT2, out=U[:m, width:])
    np.multiply(u0[:m], scale, out=U[m : 2 * m, :width])
    np.multiply(u1[:m], -scale, out=U[m : 2 * m, width:])
    U[2 * m : m + width, :width], U[2 * m : m + width, width:] = u0[m:], 0.0
    U[m + width :, :width], U[m + width :, width:] = 0.0, u1[m:]
    return U


def _flip_to_sectors(x: np.ndarray, width: int, sign: np.ndarray) -> np.ndarray:
    """P^T x along axis 0, the inverse of ``_sectors_to_flip``."""
    m = len(sign)
    a, b = x[:m], x[m : 2 * m] * sign[:, None]
    out = np.empty_like(x)
    # in place, with no temporary as large as a
    np.add(a, b, out=out[:m])
    out[:m] *= _HALF_SQRT2
    np.subtract(a, b, out=out[width : width + m])
    out[width : width + m] *= _HALF_SQRT2
    out[m:width] = x[2 * m : m + width]
    out[width + m :] = x[m + width :]
    return out


def _sector_blocks(m: np.ndarray) -> list[np.ndarray]:
    """The four ``_SECTORS`` blocks of a real 2^n matrix that commutes with
    the flip and the mirror, in pair order: P^T A P for each flip block A,
    gathered into pair order, cut at its m = +1 sector's width."""
    order = _pair_order(m.shape[0])
    pairs = np.ix_(*[np.argsort(order.position)] * 2)
    blocks = []
    for a, width, sign in zip(_fold(m), order.widths, order.partner_sign):
        a = _flip_to_sectors(_flip_to_sectors(a[pairs], width, sign).T, width, sign).T
        blocks += [a[:width, :width].copy(), a[width:, width:].copy()]
    return blocks


def _sector_vector(u: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Full-basis vectors (columns) of vectors ``u`` in sector k: u in its
    sector's rows of the flip block's two sectors stacked, through the
    butterfly ``_sectors_to_flip``, gathered out of pair order and
    unfolded."""
    order = _pair_order(dim)
    h, width, sign = dim // 2, order.widths[k // 2], order.partner_sign[k // 2]
    c = np.zeros((h,) + u.shape[1:])
    start = width if k % 2 else 0
    c[start : start + len(u)] = u
    c = c.reshape(h, -1)
    x = _sectors_to_flip(c, np.empty_like(c), width, sign)
    return _unfold(x[order.position].reshape((h,) + u.shape[1:]), _SECTORS[k][0])


# A block at least this wide takes its norm by Lanczos, a narrower one by a
# full eigvalsh of S^T S, which is faster there (one BLAS thread: eigvalsh
# wins at widths up to 136, Lanczos from 240 on; CHANGES.md has the table).
_LANCZOS_WIDTH = 192
# Lanczos steps per stop test (``_lanczos_norm``)
_LANCZOS_TEST_EVERY = 4


def _lanczos_norm(S: np.ndarray) -> float:
    """Largest singular value of S: the top Ritz value of a Lanczos iteration
    on S^T S, with full reorthogonalisation and two products with S per step;
    S^T S is never formed.

    It stops when the residual of the top Ritz pair is at most
    width * eps * theta, the rounding level of the products that form it.
    That test takes an ``eigh`` of the tridiagonal, which costs more than
    the step itself, so it is made every ``_LANCZOS_TEST_EVERY`` steps, and
    where the Krylov space ends exactly (b = 0) or the width is reached.
    The start vector q is a fixed pseudo-random one, so every call on the
    same S gives the same bits.  With full reorthogonalisation the Krylov
    space, which lies in q plus S's row space, stops growing after at most
    rank(S) + 1 steps; there the residual is at rounding level and the Ritz
    values are eigenvalues of S^T S, so the iteration needs no cap beyond
    the width.  A step past that point takes a rounding-level residual as
    its direction, orthogonal to the Krylov space, with a rounding-level
    coupling b: it leaves the top Ritz pair where it is.
    """
    width = S.shape[1]
    Q = np.empty((width, width))  # Lanczos vectors, one per row
    T = np.zeros((width, width))  # the tridiagonal Q S^T S Q^T
    q = np.random.default_rng(0).standard_normal(width)
    Q[0] = q / np.linalg.norm(q)
    for k in range(width):
        p = S @ Q[k]
        w = S.T @ p
        T[k, k] = p @ p
        V = Q[: k + 1]
        w -= (V @ w) @ V
        w -= (V @ w) @ V  # twice is enough
        b = np.sqrt(w @ w)
        if (k + 1) % _LANCZOS_TEST_EVERY == 0 or b == 0.0 or k + 1 == width:
            theta, y = np.linalg.eigh(T[: k + 1, : k + 1])
            if b * abs(y[-1, -1]) <= width * np.finfo(float).eps * theta[-1] or k + 1 == width:
                return float(np.sqrt(theta[-1]))
        T[k, k + 1] = T[k + 1, k] = b
        Q[k + 1] = w / b


def _sector_norm(blocks) -> float:
    """Operator norm of a real operator from its blocks S in a basis that
    splits it (``_fold``, ``_sector_blocks``): the largest singular value of
    any block, sqrt(lambda_max(S^T S)) from a full ``eigvalsh`` for a block
    narrower than ``_LANCZOS_WIDTH`` and ``_lanczos_norm`` for a wider one;
    an empty block has none."""
    return max(
        _lanczos_norm(S)
        if S.shape[1] >= _LANCZOS_WIDTH
        else float(np.sqrt(np.linalg.eigvalsh(S.T @ S)[-1]))
        for S in blocks
        if S.size
    )


@lru_cache(maxsize=None)
def _chain_terms(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The two terms of a uniform chain of n sites cut into the four
    ``_SECTORS``: per sector, sum_i Z_i Z_{i+1} as the vector z of its
    block's diagonal (the block is diagonal, as sum ZZ is in the basis) and
    sum_i X_i as the block X, both read off the cut of their 2^n matrices.
    Cut once for each n <= MAX_SITES and kept (2.1 MB at n = 10)."""
    zz = _sector_blocks(_tfim_matrix(n, np.full(n - 1, -1.0), np.zeros(n)))
    zz = [np.diagonal(z).copy() for z in zz]
    xs = _sector_blocks(_tfim_matrix(n, np.zeros(n - 1), np.full(n, -1.0)))
    terms = tuple(zip(zz, xs))
    for a in (a for term in terms for a in term):
        a.setflags(write=False)
    return terms


class _ChainOperator:
    """-sum_i bonds[i] Z_i Z_{i+1} - sum_i fields[i] X_i on n sites, held as
    its coefficients, which commutes with the spin flip.  ``mat``, the real
    2^n matrix, is built only when read, read-only."""

    @property
    def dim(self) -> int:
        return 2**self.n

    @cached_property
    def mat(self) -> np.ndarray:
        m = _tfim_matrix(self.n, self.bonds, self.fields)
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class _SiteCouplings(_ChainOperator):
    """A chain operator given by its bonds and fields on sites: a centred
    source, which does not in general commute with the mirror.
    ``adiabatic_generator`` reads its coefficients and never its matrix."""

    bonds: tuple
    fields: tuple

    @property
    def n(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class _UniformChain(_ChainOperator):
    """-J sum Z_i Z_{i+1} - g sum X_i on n sites: a chain operator with one
    bond and one field on every site, which also commutes with the mirror
    i <-> n-1-i.

    It is held as its two coefficients.  Its four (flip, mirror) blocks of
    about 2^(n-2) are -J diag(z) - g X from the terms of ``_chain_terms``,
    and its spectrum is read from their decompositions (``sectors``); no
    2^n or 2^(n-1) decomposition is ever taken.  Only a uniform chain is
    split by the mirror.
    """

    n: int
    J: float
    g: float

    @property
    def bonds(self) -> tuple:
        return (self.J,) * (self.n - 1)

    @property
    def fields(self) -> tuple:
        return (self.g,) * self.n

    def blocks(self) -> list[np.ndarray]:
        blocks = []
        for z, x in _chain_terms(self.n):
            b = -self.g * x
            b[np.diag_indices(len(z))] -= self.J * z
            blocks.append(b)
        return blocks

    @cached_property
    def sectors(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``numpy.linalg.eigh`` of the four ``_SECTORS`` blocks, read-only,
        shared by every chain of the same (n, J, g) (``_chain_sectors``).
        A memo key does not tell -0.0 from 0.0, so both take 0.0's
        decompositions, whichever was visited first."""
        return _chain_sectors(self.n, self.J + 0.0, self.g + 0.0)


@lru_cache(maxsize=2)
def _chain_sectors(n: int, J: float, g: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The four sector decompositions of -J sum ZZ - g sum X on n sites,
    every w and u read-only.

    A path point and each of its centred terms build their own H(s) with
    the same (n, J, g), so they take its decompositions once.  Only the two
    most recently visited points are kept: one visited neighbour is enough
    for a point's centres to find it, and a point holds about 2^(2n-2)
    floats (2.1 MB at n = 10, 33 MB at n = 12).  Only the spectra are kept,
    never an operator, whose ``mat`` would be kept with it."""
    sectors = tuple(np.linalg.eigh(block) for block in _UniformChain(n, J, g).blocks())
    for a in (a for pair in sectors for a in pair):
        a.setflags(write=False)
    return sectors


def _path_parameter(s) -> float:
    """A path parameter from outside the program: a number in [0, 1]."""
    s = input_number("s", s)
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s = {s} outside [0, 1]")
    return s


def _site(center, n: int) -> int:
    """A centre site from outside the program: an integer in 0..n-1."""
    center = input_number("center", center, integer=True)
    if not (0 <= center < n):
        raise ValueError(f"center = {center} out of range 0..{n-1}")
    return center


def build_chain_hamiltonian(spec: ChainPathSpec, s: float) -> _UniformChain:
    """The TFIM Hamiltonian at path parameter s in [0, 1], a uniform chain."""
    return _UniformChain(spec.n_sites, *spec.couplings(_path_parameter(s)))


def _fix_phase(psi: np.ndarray) -> np.ndarray:
    """Deterministic gauge: first amplitude above tolerance made real positive."""
    idx = np.argmax(np.abs(psi) > GAUGE_TOL)
    ph = psi[idx] / abs(psi[idx])
    return psi / ph


def _chain_operators(H, *sources) -> None:
    """ValueError unless H is a uniform chain and every source a chain
    operator, as the chain builders make them."""
    if not (isinstance(H, _UniformChain) and all(isinstance(op, _ChainOperator) for op in sources)):
        raise ValueError("expected operators built by build_chain_hamiltonian or chain_hprime")


def _ground_level(H: _UniformChain) -> tuple[int, float]:
    """The sector holding the lowest level of H (an index into ``_SECTORS``,
    the first on a tie) and the gap to the next level in any sector.  A
    sector may be empty or one level wide."""
    levels = sorted((e, k) for k, (w, _) in enumerate(H.sectors) for e in w[:2])
    (e0, k), (e1, _) = levels[:2]
    gap = float(e1 - e0)
    if gap < GAP_FLOOR:
        raise GapCollapseError(f"gap {gap:.3e} below floor {GAP_FLOOR}")
    return k, gap


def ground_state(H: _UniformChain) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair of a chain Hamiltonian, from the sector that holds
    it, and the gap to the first excited state in any sector."""
    _chain_operators(H)
    k, gap = _ground_level(H)
    w, u = H.sectors[k]
    return float(w[0]), _fix_phase(_sector_vector(u[:, 0], H.dim, k)), gap


def chain_hprime(spec: ChainPathSpec, s: float) -> _UniformChain:
    """dH/ds at path parameter s in [0, 1] from the schedule derivatives
    (analytic for polynomial J, g)."""
    return _UniformChain(spec.n_sites, *spec.coupling_derivatives(_path_parameter(s)))


# ---------------------------------------------------------------------------
# exact transport generator


def _divided_by_gaps(w: np.ndarray, A: np.ndarray, w_cols: np.ndarray | None = None) -> np.ndarray:
    """B_mn = A_mn / (E_m - E_n) for A_mn = <m|source|n> in the real
    eigenbasis (w, v), zero on the diagonal and on (near-)degenerate pairs.
    The transport generator is K = i v B v^T.  ``w_cols``, when given, holds
    the levels of A's columns, which are then other levels than its rows'.
    B is written over A, which every caller has just formed."""
    dE = w[:, None] - (w if w_cols is None else w_cols)[None, :]
    dE[np.abs(dE) <= DEGENERACY_TOL] = np.inf
    return np.divide(A, dE, out=A)


def _sector_quotients(H: _UniformChain, Hprime: _UniformChain) -> list[np.ndarray]:
    """``_divided_by_gaps`` in each sector of H for the source
    H' = -J' sum ZZ - g' sum X, one product per sector.

    The eigenvectors u of a block -J diag(z) - g X diagonalise it, so
    <m|X|n> = -(J/g) <m|Z|n> for m != n, and
    H'_mn = ((g'J - gJ') / g) (u^T diag(z) u)_mn.  The diagonal of that
    matrix is not H'_mm, but no quotient reads it.  This needs g != 0; at
    g = 0 the two flip partners of every level are degenerate, so
    ``_ground_level`` raises GapCollapseError first.  The entries between
    sectors are zero, as those of H' are.
    """
    c = (Hprime.g * H.J - H.g * Hprime.J) / H.g
    return [
        _divided_by_gaps(w, (u.T * (c * z)) @ u)
        for (w, u), (z, _) in zip(H.sectors, _chain_terms(H.n))
    ]


def _flip_block_generator(H: _UniformChain, source, k: int) -> np.ndarray:
    """R / 4 in the flip block of H's sectors k and k + 1 (k = 0 or 2), in
    pair order (``_PairOrder``), before antisymmetrisation.

    With u_k, u_k+1 the two sectors' eigenvectors and P the butterfly from
    the sectors to the flip block, H's eigenvectors in the flip block are
    U = P blockdiag(u_k, u_k+1), written straight from the two blocks
    (``_flip_eigenvectors``).  The source S is a diagonal of bonds plus one
    signed row permutation per field, so S U takes row scalings and
    gathers.  A = U^T S U is read in two parts: the rows of sector k, and
    sector k + 1's own block, so of G = P^T S U only the blocks those parts
    read are formed; each takes products with a sector block as a factor.
    With B the gap quotients of A, R = U B U^T = P (D B D^T) P^T,
    D = blockdiag(u_k, u_k+1), and D B D^T is antisymmetric, so its
    lower-left block is minus the transpose of its upper-right one; the two
    upper blocks take three products and the lower-right one two.
    """
    order = _pair_order(H.dim)
    (w0, u0), (w1, u1) = H.sectors[k : k + 2]
    width, sign, flip = len(w0), order.partner_sign[k // 2], _SECTORS[k][0]
    m, h = len(sign), H.dim // 2
    U = _flip_eigenvectors(u0, u1, sign)
    # S / 4, the quarter that adiabatic_generator's half sums and half
    # differences take; a power of two scales every rounding exactly
    SU = -(order.zz @ (0.25 * np.asarray(source.bonds, dtype=float)))[:, None] * U
    for i, f in enumerate(source.fields):
        if f:
            image = U[order.fields[i]]
            image *= 0.25 * (f * flip if i == 0 else f)
            SU -= image
    # the sector-k rows of G = P^T S U in the sector-k columns, and all its
    # rows in the sector-(k + 1) columns
    G00 = np.empty((width, width))
    np.multiply(SU[:m, :width] + SU[m : 2 * m, :width] * sign[:, None], _HALF_SQRT2, out=G00[:m])
    G00[m:] = SU[2 * m : m + width, :width]
    G1 = _flip_to_sectors(SU[:, width:], width, sign)
    B00 = _divided_by_gaps(w0, u0.T @ G00)
    B01 = _divided_by_gaps(w0, u0.T @ G1[:width], w1)
    B11 = _divided_by_gaps(w1, u1.T @ G1[width:])
    C = np.empty((h, h))
    np.matmul(u0, np.hstack([B00 @ u0.T, B01 @ u1.T]), out=C[:width])
    C[width:, width:] = u1 @ B11 @ u1.T
    C[width:, :width] = -C[:width, width:].T
    rows = _sectors_to_flip(C, U, width, sign)
    return _sectors_to_flip(rows.T, C.T, width, sign).T


@dataclass(frozen=True)
class _TransportGenerator:
    """A transport generator K = i R as ``adiabatic_generator`` builds it,
    held as R alone: the real 2^n matrix, C-contiguous and read-only,
    exactly antisymmetric and exactly symmetric under the global spin flip
    F (F R F = R), as it is built.  ``locality_profile`` reads it without a
    check; a caller that needs K itself forms 1j * R.
    """

    R: np.ndarray


def adiabatic_generator(H: _UniformChain, Hprime) -> _TransportGenerator:
    """Exact spectral generator of ground-state transport along the path.

    Built in H's eigenbasis as K_mn = i H'_mn / (E_m - E_n) over all
    non-degenerate pairs (zero on degenerate ones), so that
    iK|psi(s)> = d|psi(s)>/ds holds identically for the gapped ground state
    with <0|K|0> = 0 (parallel-transport gauge); dropping near-degenerate
    excited pairs does not touch ground-state transport while the gap holds.
    No quasi-adiabatic filter is applied, so nothing guarantees that K is
    quasi-local: its locality is measured (``locality_profile``), not
    assumed.  On the path J = 1, g = 1.5 + s at n = 10 the centered term's
    shell strengths peak at r = 3.

    H must be a uniform chain (``build_chain_hamiltonian``) and H' a chain
    operator (``chain_hprime``, or the centred source of
    ``centered_generator_term``); anything else is a ValueError.  Either
    source is read as its coefficients, bonds and fields on sites, by one
    code path; its matrix is never built.  H' need not be mirror-symmetric,
    so every quantity is read per flip block, from H's two mirror sectors
    there, and every product is taken in sector coordinates
    (``_flip_block_generator``): three products give H' in H's eigenbasis
    and five give R, each with a sector block as a factor.  At n = 10 they
    come to about 1.1 products of 512^3 per flip block, where U^T S U and
    U B U^T taken whole in flip coordinates are four.

    K = i R comes back as a ``_TransportGenerator`` that holds the real R;
    no complex matrix is formed.  The half sum
    and half difference of R's two flip blocks are gathered back to flip
    order, antisymmetrised straight into R's upper quadrants and mirrored
    into its lower ones, so R is exactly antisymmetric and F R F = R
    exactly.  H's four sector decompositions are taken once per point and
    shared (``_chain_sectors``), so the products and the gathers are what a
    term costs once its point has been visited.
    """
    _chain_operators(H, Hprime)
    if H.dim != Hprime.dim:
        raise ValueError("H and H' dimensions differ")
    _ground_level(H)
    plus, minus = (_flip_block_generator(H, Hprime, k) for k in (0, 2))
    position = _pair_order(H.dim).position
    # R is [[s, d], [d, s]] with the rows and columns of the lower half
    # reversed, as (|r> + f|2^n - 1 - r>)/sqrt(2) unfolds: s and d are the
    # antisymmetrised half sum and half difference of the flip blocks.  The
    # flip blocks and their sum serve as buffers; "clip" never clips a
    # position, and unlike the default mode it lets take write into out
    # unbuffered
    h = len(position)
    R = np.empty((2 * h, 2 * h))
    total = plus + minus
    diff = np.subtract(plus, minus, out=plus)
    for a, quadrant in ((total, R[:h, :h]), (diff, R[:h, h:][:, ::-1])):
        np.take(a, position, axis=0, out=minus, mode="clip")
        np.take(minus, position, axis=1, out=a, mode="clip")
        np.subtract(a, a.T, out=quadrant)
    R[h:, :h] = R[:h, h:][::-1, ::-1]
    R[h:, h:] = R[:h, :h][::-1, ::-1]
    R.setflags(write=False)
    return _TransportGenerator(R)


def centered_generator_term(spec: ChainPathSpec, s: float, center: int) -> _TransportGenerator:
    """Component of the transport generator sourced by the schedule
    derivative of the local terms at ``center`` (its transverse field and,
    when present, the bond to the right).

    The full generator is the sum of these over all sites; only the centered
    component has the radial decay worth profiling (the full K keeps
    swallowing whole O(1) terms as the ball grows).  ``s`` is a number in
    [0, 1] and ``center`` an integer site; anything else is a ValueError.
    """
    n = spec.n_sites
    s, center = _path_parameter(s), _site(center, n)
    dJ, dg = spec.coupling_derivatives(s)
    bonds, fields = [0.0] * (n - 1), [0.0] * n
    fields[center] = dg
    if center < n - 1:
        bonds[center] = dJ
    source = _SiteCouplings(tuple(bonds), tuple(fields))
    return adiabatic_generator(build_chain_hamiltonian(spec, s), source)


# ---------------------------------------------------------------------------
# locality


def _shell_flip_blocks(cur: np.ndarray, inner: np.ndarray, dims: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks ``_fold`` reads of shell = cur - I (x) inner (x) I,
    factors of dimensions ``dims``, taken from the shell's upper half of
    rows; cur is never copied whole.

    Those rows are the lower half of the leading factor of more than one
    level.  When that factor is inner's, I (x) inner (x) I has entries in
    both upper blocks, and cur's upper half is copied and changed.
    Otherwise it has none in the upper-right block, and only the upper-left
    block is copied and changed."""
    h = len(cur) // 2
    d0, d1, d2 = dims
    rows = (d0 // 2, d1, d2) if d0 > 1 else (1, d1 // 2, d2) if d1 > 1 else (1, 1, d2 // 2)
    split = rows[1] < d1  # the leading factor is inner's
    top = cur[:h, : 2 * h if split else h].copy()
    np.einsum("iakibk->ikab", top.reshape(rows + (dims if split else rows)))[...] -= inner[: rows[1]]
    a, b = top[:, :h], (top if split else cur)[:h, h:][:, ::-1]
    return a + b, a - b


def locality_profile(K: _TransportGenerator, spec: ChainPathSpec, center: int) -> LocalityProfile:
    """Shell decomposition of K around a site: strengths ||Pi_r K - Pi_{r-1} K||.

    Pi_r is the normalized compression onto the radius-r ball; Pi_{-1} is the
    identity component (Tr K / dim) I.  The shells sum back to Pi_{r_max} K
    exactly.

    A ball is a contiguous run of sites and ||D (x) I|| = ||D||, so each
    shell is taken on its own ball as K_r - I (x) K_{r-1} (x) I, where K_r
    is the partial trace of K onto ball r divided by the dimension traced
    out.  The largest ball is the whole chain; each K_{r-1} is traced from
    K_r.

    K is the ``_TransportGenerator`` that ``adiabatic_generator`` and
    ``centered_generator_term`` return, whose R is read as built; any other
    operator is a ValueError.  The profile runs on R in real arithmetic,
    since ||i S|| = ||S||.  R commutes with the global spin flip, and a
    partial trace keeps that on the ball, so each shell is block diagonal
    in its ball's flip basis and its norm is the larger of its two flip
    blocks' (``_sector_norm``), taken from the shell's upper rows alone
    (``_shell_flip_blocks``): each block's largest singular value, from a
    full ``eigvalsh`` of S^T S on a ball of up to 8 sites, and by Lanczos
    on a wider one (at n = 10 the r = 4 and r = 5 shells of a centre in the
    middle), which are most of a profile's cost.  K must be 2^n_sites wide,
    n_sites from ``spec``; a generator of another size is a ValueError.
    """
    if not isinstance(K, _TransportGenerator):
        raise ValueError(
            "locality_profile takes the transport generator that adiabatic_generator"
            " or centered_generator_term returns"
        )
    n = spec.n_sites
    if len(K.R) != 2**n:
        raise ValueError(f"K is {len(K.R)} wide, but a chain of {n} sites is {2**n} wide")
    center = _site(center, n)
    r_max = max(center, n - 1 - center)
    radii = np.arange(r_max + 1)
    strengths = np.zeros(r_max + 1)
    cur, lo, hi = K.R, 0, n - 1
    for r in radii[::-1]:
        # sites in_lo..in_hi of ball r - 1; the empty ball below r = 0 keeps
        # one 1 x 1 block, Tr R / dim
        in_lo, in_hi = (max(0, center - r + 1), min(n - 1, center + r - 1)) if r else (center, center - 1)
        dims = (2 ** (in_lo - lo), 2 ** (in_hi - in_lo + 1), 2 ** (hi - in_hi))
        inner = partial_trace_matrix(cur, dims, [1]) / (dims[0] * dims[2])
        # the shell commutes with its ball's flip, and ||i S|| = ||S||
        strengths[r] = _sector_norm(_shell_flip_blocks(cur, inner, dims))
        cur, lo, hi = inner, in_lo, in_hi
    return LocalityProfile(center=center, radii=radii, strengths=strengths)


# ---------------------------------------------------------------------------
# entropy along the path


def _simpson_weights(h0: float, h1: float) -> tuple[float, float, float]:
    """Simpson weights on the three points s - h0, s, s + h1: exact for
    quadratics on the non-uniform grid, (h/3, 4h/3, h/3) on a uniform one."""
    H = h0 + h1
    return H / 6 * (2 - h1 / h0), H**3 / (6 * h0 * h1), H / 6 * (2 - h0 / h1)


def _check_rates(grid, entropies, rates) -> None:
    """Raise TransportConsistencyError where an interior rate disagrees with
    the entropies.

    At each interior point S_{i+1} - S_{i-1} must equal the Simpson integral
    of r_{i-1}, r_i, r_{i+1} over the grid's own spacing.  Solved for r_i,
    that gives the rate the entropies imply; the two must agree within
    max(RATE_CHECK_ATOL, RATE_CHECK_RTOL * |r_i|).
    """
    for i in range(1, len(grid) - 1):
        w0, w1, w2 = _simpson_weights(grid[i] - grid[i - 1], grid[i + 1] - grid[i])
        implied = (
            entropies[i + 1] - entropies[i - 1] - w0 * rates[i - 1] - w2 * rates[i + 1]
        ) / w1
        tol = max(RATE_CHECK_ATOL, RATE_CHECK_RTOL * abs(rates[i]))
        if abs(rates[i] - implied) > tol:
            raise TransportConsistencyError(
                f"rates disagree at s={grid[i]}: commutator {rates[i]:.6e} vs "
                f"entropy differences {implied:.6e} (tol {tol:.1e})",
                {"s": grid[i], "rate_commutator": rates[i], "rate_entropy": implied, "tol": tol},
            )


def entropy_along_path(spec: ChainPathSpec) -> list[PathPoint]:
    """Ground state, gap, cut entropy, and its rate at every grid point.

    The rate comes from the transport generator through the tangent vector
    iK|psi>, read in the sector k that holds psi = u e_0 as -u B_k e_0 from
    that sector's gap quotients B_k (four sector eigendecompositions of H
    per point, K never formed).  At interior points it must agree with the
    entropies on the grid (see ``_check_rates``); ``rate_finite_difference``
    reports the central difference of the entropies (one-sided at the
    ends).  ``K_norm`` is the operator norm of K, taken in H's eigenbasis.
    """
    grid = spec.s_grid
    rows = []
    for s in grid:
        H = build_chain_hamiltonian(spec, s)
        e0, psi, gap = ground_state(H)
        blocks = _sector_quotients(H, chain_hprime(spec, s))
        # iK u e_0 = -u B e_0 (K = i u B u^T) in psi's sector k, which H'
        # keeps; psi = +-u e_0, and S_L and its rate are even in the sign
        k, _ = _ground_level(H)
        _, u = H.sectors[k]
        # the Schmidt matrices of psi and of its tangent across the cut
        schmidt = lambda x: _sector_vector(x, H.dim, k).reshape(2**spec.cut, -1)
        rate, w, _, on, lw = _schmidt_rate(schmidt(u[:, 0]), schmidt(-u @ blocks[k][:, 0]))[:5]
        entropy = float(-np.sum(w[on] * lw[on]))
        k_norm = _sector_norm(blocks)
        rows.append((s, e0, gap, psi, entropy, float(rate), k_norm))
    _, _, _, _, entropies, rates, _ = zip(*rows)
    _check_rates(grid, entropies, rates)
    fd = np.gradient(np.asarray(entropies), np.asarray(grid))
    return [
        PathPoint(s, e0, gap, psi, entropy, rate, float(fd_i), k_norm)
        for (s, e0, gap, psi, entropy, rate, k_norm), fd_i in zip(rows, fd)
    ]

