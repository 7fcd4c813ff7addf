"""Target sets on the unit sphere and on a hyperplane.

A spherical target is a finite union of closed geodesic caps; a planar
target is a ball or an axis-aligned box inside the hyperplane orthogonal
to a given unit vector.  Both carry exact membership tests, surface
measures under the unit-mass normalisation and boundary samplers.

Integrals over a cap union against the surface measure, the harmonic
weights of ``potential`` in d >= 3 and the surface measure itself, use one
section rule (``_section_rule``): the colatitude about a pole, weighted by
the fraction of each section sphere that lies in the union, on graded
Gauss-Legendre panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sc

# graded Gauss-Legendre panels (see ``_peak_integrals``; the endpoint rule
# ``potential.quad_endpoint_singular`` shares them)
_PANEL_NODES = 20       # Gauss nodes per panel
_GRADING_RATIO = 0.15   # ratio of neighbouring panel lengths in a graded rule
_GRADING_LEVELS = 19    # graded panels per half of an endpoint rule


@lru_cache(maxsize=32)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def _blocks(n: int, per_row: int) -> list[slice]:
    # slices of n rows of about 2 M array entries each, per_row a row
    step = max(1, 2 ** 21 // per_row)
    return [slice(i, i + step) for i in range(0, n, step)]


def _peak_integrals(g, w, length):
    # int_0^L_i g(i, s) ds for every row i, where g peaks a distance w_i
    # before s = 0 and g(rows, s) takes a slice of rows and their nodes s:
    # the panel [0, w_i], then panels growing by 1/_GRADING_RATIO up to L_i,
    # _PANEL_NODES Gauss-Legendre nodes each.  Rows go 4096 at a time, padded
    # to the largest panel count among them with zero-length panels at L_i
    out = np.empty(len(w))
    grow = 1.0 / _GRADING_RATIO
    gx, gw = _leggauss(_PANEL_NODES)
    for rows in _blocks(len(w), 512):
        wr, lr = np.fmin(w[rows], length[rows]), length[rows]
        levels = math.ceil(np.log(np.fmax(lr / wr, 1.0)).max() / math.log(grow))
        edges = np.minimum(wr[:, None] * np.r_[0.0, grow ** np.arange(levels + 1)],
                           lr[:, None])
        edges[:, -1] = lr
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
        s = (mid + half * gx).reshape(len(lr), -1)
        out[rows] = (g(rows, s) * (half * gw).reshape(len(lr), -1)).sum(axis=1)
    return out


def _piece_integrals(ends, g, w0):
    # int from ends[i, 0] to ends[i, -1] of g(i, t) dt for every row i of the
    # sorted ends (n, k), where g(points, t) takes a point index per row of t.
    # Each piece between neighbouring ends is halved, and each half graded
    # from its end by ``_peak_integrals``: a first panel of
    # _GRADING_RATIO**_GRADING_LEVELS of the half (as in the endpoint rule),
    # or at ends[i, 0] the width w0[i] of a peak there if that is wider
    n, k = ends.shape[0], ends.shape[1] - 1
    w0 = np.broadcast_to(w0, (n,))
    out = np.empty(n)
    for rows in _blocks(n, 2 * k):
        lo, hi = ends[rows, :-1].ravel(), ends[rows, 1:].ravel()
        mid = lo + 0.5 * (hi - lo)
        length = np.concatenate([mid - lo, hi - mid])
        width = length * _GRADING_RATIO ** _GRADING_LEVELS
        width[: len(lo) : k] = np.fmax(w0[rows], width[: len(lo) : k])
        start = np.concatenate([lo, hi])
        sign = np.repeat([1.0, -1.0], len(lo))
        point = np.tile(np.repeat(np.arange(n)[rows], k), 2)
        keep = length > 0.0
        start, sign, point, width, length = (v[keep] for v in (start, sign, point, width, length))
        vals = _peak_integrals(lambda i, s: g(point[i], start[i, None] + sign[i, None] * s),
                               width, length)
        out[rows] = np.bincount(point - rows.start, weights=vals, minlength=len(lo) // k)
    return out


def unit_vector(v) -> tuple[float, ...]:
    """Validate and return v as a unit-norm tuple."""
    arr = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(arr))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"direction must have unit norm, got |v|={n}")
    return tuple(arr / n)


@dataclass(frozen=True)
class CapSet:
    """Closed union of geodesic caps on the unit sphere in R^d.

    Each cap is (center, angular_radius) with radius in (0, pi]; a single
    cap of radius pi is the full sphere.
    """

    caps: tuple[tuple[tuple[float, ...], float], ...]
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be >= 2")
        if not self.caps:
            raise ValueError("at least one cap required")
        norm = []
        for center, radius in self.caps:
            if not 0.0 < radius <= math.pi:
                raise ValueError(f"cap radius must lie in (0, pi], got {radius}")
            if len(center) != self.d:
                raise ValueError("cap center dimension mismatch")
            norm.append((unit_vector(center), float(radius)))
        object.__setattr__(self, "caps", tuple(norm))

    @classmethod
    def single(cls, center, radius: float, d: int | None = None) -> "CapSet":
        center = tuple(float(c) for c in center)
        return cls(caps=((center, float(radius)),), d=d or len(center))

    @classmethod
    def full_sphere(cls, d: int) -> "CapSet":
        pole = (1.0,) + (0.0,) * (d - 1)
        return cls(caps=((pole, math.pi),), d=d)

    def centers(self) -> np.ndarray:
        return np.array([c for c, _ in self.caps])

    def radii(self) -> np.ndarray:
        return np.array([r for _, r in self.caps])


@dataclass(frozen=True)
class PlanarSet:
    """Closed bounded subset of the hyperplane {x : (x, v) = 0}.

    Shapes are expressed in an orthonormal frame of the hyperplane that is
    derived deterministically from the normal (see ``plane_frame``): a ball
    is (center, radius) and a box is (lo, hi) corner coordinates, all in
    frame coordinates of dimension d-1.
    """

    normal: tuple[float, ...]
    shape: str  # "ball" | "box"
    params: tuple
    d: int

    def __post_init__(self):
        object.__setattr__(self, "normal", unit_vector(self.normal))
        if self.d != len(self.normal) or self.d < 2:
            raise ValueError("normal dimension mismatch")
        if self.shape == "ball":
            center, radius = self.params
            if len(center) != self.d - 1 or radius <= 0:
                raise ValueError("ball params must be ((d-1)-center, radius>0)")
            object.__setattr__(self, "params",
                               (tuple(float(c) for c in center), float(radius)))
        elif self.shape == "box":
            lo, hi = self.params
            lo = tuple(float(v) for v in lo)
            hi = tuple(float(v) for v in hi)
            if len(lo) != self.d - 1 or len(hi) != self.d - 1 or \
                    any(h <= l for l, h in zip(lo, hi)):
                raise ValueError("box params must be (lo, hi) with lo < hi")
            object.__setattr__(self, "params", (lo, hi))
        else:
            raise ValueError(f"unknown planar shape {self.shape!r}")

    @classmethod
    def ball(cls, normal, center, radius: float) -> "PlanarSet":
        normal = tuple(float(v) for v in normal)
        return cls(normal=normal, shape="ball",
                   params=(tuple(center), float(radius)), d=len(normal))

    @classmethod
    def box(cls, normal, lo, hi) -> "PlanarSet":
        normal = tuple(float(v) for v in normal)
        return cls(normal=normal, shape="box",
                   params=(tuple(lo), tuple(hi)), d=len(normal))


@dataclass(frozen=True)
class Target:
    """Thickened hitting set: spherical shell or planar slab.

    Shell membership: 1-eps <= |x| <= 1+eps and geodesic dist(arg x, S) <= delta.
    Slab membership:  |(v, x)| <= eps and in-plane dist(x_hat, D) <= delta.
    """

    kind: str  # "shell" | "slab"
    sphere_set: CapSet | None = None
    plane_set: PlanarSet | None = None
    eps: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("target thickness eps must be positive")
        if self.delta < 0.0:
            raise ValueError("target enlargement delta must be >= 0")
        if self.kind == "shell":
            if self.sphere_set is None:
                raise ValueError("shell target requires a CapSet")
        elif self.kind == "slab":
            if self.plane_set is None:
                raise ValueError("slab target requires a PlanarSet")
        else:
            raise ValueError(f"unknown target kind {self.kind!r}")

    @property
    def d(self) -> int:
        return self.sphere_set.d if self.kind == "shell" else self.plane_set.d


def shell(S: CapSet, eps: float, delta: float = 0.0) -> Target:
    return Target(kind="shell", sphere_set=S, eps=eps, delta=delta)


def slab(D: PlanarSet, eps: float, delta: float = 0.0) -> Target:
    return Target(kind="slab", plane_set=D, eps=eps, delta=delta)


# -- angular distance --------------------------------------------------------

def angular_distance_many(S: CapSet, thetas: np.ndarray) -> np.ndarray:
    """Geodesic distance (radians) from unit vectors thetas (n, d) to S."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    centers = S.centers()
    radii = S.radii()
    cosang = np.clip(thetas @ centers.T, -1.0, 1.0)
    dist = np.arccos(cosang) - radii[None, :]
    return np.maximum(dist.min(axis=1), 0.0)


def euclidean_distance_to_shell(S: CapSet, x: np.ndarray) -> float:
    """Euclidean distance from a point of R^d to the set S on the sphere."""
    return float(euclidean_distance_to_shell_many(S, np.array([x], dtype=float))[0])


def euclidean_distance_to_shell_many(S: CapSet, X: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of X (n, d) to S.

    With r = |x| and phi the geodesic distance of x/r to S, the distance is
    sqrt((r - 1)^2 + 4 r sin^2(phi/2)): no cancellation, so points within
    1e-8 of S keep their relative accuracy (r^2 + 1 - 2 r cos(phi) reads 0
    there).  The origin is at distance 1; a row that is not finite gets NaN.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = np.linalg.norm(X, axis=1)
    safe = np.where(r > 0.0, r, 1.0)
    half = np.sin(0.5 * angular_distance_many(S, X / safe[:, None]))
    out = np.sqrt((r - 1.0) ** 2 + 4.0 * r * half * half)
    return np.where(r == 0.0, 1.0, out)


# -- surface measure and the section rule ----------------------------------

def _sin_power_total(d: int) -> float:
    # int_0^pi sin^{d-2} t dt
    return math.sqrt(math.pi) * math.exp(sc.gammaln((d - 1) / 2.0) - sc.gammaln(d / 2.0))


def _cap_measure(radius, d: int):
    """Normalised surface measure of caps of angular radius r (float or array)."""
    if d == 2:
        return radius / math.pi
    half = 0.5 * sc.betainc((d - 1) / 2.0, 0.5, np.sin(radius) ** 2)
    return np.where(radius <= math.pi / 2.0, half, 1.0 - half)


def _merge_arcs(caps) -> list[tuple[float, float]]:
    """Disjoint arc decomposition [(lo, hi), ...] of a circle cap union."""
    two_pi = 2.0 * math.pi
    raw = []
    for (cx, cy), r in caps:
        if r >= math.pi - 1e-15:
            return [(0.0, two_pi)]
        a = math.atan2(cy, cx)
        raw.append(((a - r) % two_pi, 2.0 * r))
    pieces = []
    for lo, length in raw:
        if lo + length <= two_pi:
            pieces.append((lo, lo + length))
        else:
            pieces.append((lo, two_pi))
            pieces.append((0.0, lo + length - two_pi))
    pieces.sort()
    merged = [list(pieces[0])]
    for lo, hi in pieces[1:]:
        if lo <= merged[-1][1] + 1e-15:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # wrap-around join
    if len(merged) > 1 and merged[0][0] <= 1e-15 and merged[-1][1] >= two_pi - 1e-15:
        merged[0][0] = merged[-1][0] - two_pi
        merged.pop()
    if len(merged) == 1 and merged[0][1] - merged[0][0] >= two_pi:
        return [(0.0, two_pi)]
    return [tuple(m) for m in merged]


def _frames(E: np.ndarray) -> np.ndarray:
    # orthonormal bases (n, k-1, k) of the hyperplanes orthogonal to the
    # rows of E (n, k): the Householder reflection h that maps e_k to E has
    # its first k - 1 rows in the hyperplane
    k = E.shape[1]
    w = E - np.eye(k)[-1]
    nw = np.linalg.norm(w, axis=1)
    w /= np.where(nw < 1e-14, np.inf, nw)[:, None]
    return (np.eye(k) - 2.0 * w[:, :, None] * w[:, None, :])[:, : k - 1]


def _section_caps(C, R, E):
    """The caps (centres C (n, m, k), radii R (n, m)) of each row seen from
    its pole E (n, k) on the unit sphere of R^k: cos a and sin a of each
    centre's colatitude a (n, m), its direction in a frame of the hyperplane
    orthogonal to the pole (n, m, k-1; of length sin a), and the sorted
    colatitudes (n, K) from 0 to pi where the section fraction may kink:
    where a section touches a cap boundary (|a - R|, a + R, 2 pi - a - R),
    and the extreme colatitudes of the crossing of two cap boundaries.
    """
    ca = np.einsum("nmk,nk->nm", C, E)
    T = np.einsum("nik,nmk->nmi", _frames(E), C)
    sa = np.sqrt(np.einsum("nmi,nmi->nm", T, T))
    a = np.arctan2(sa, ca)
    cr = np.cos(R)
    kinks = [np.zeros_like(a), np.abs(a - R), a + R, 2.0 * math.pi - a - R,
             np.full_like(a, math.pi)]
    for i in range(C.shape[1]):
        for j in range(i + 1, C.shape[1]):
            # the crossing is y = A c_i + B c_j + z v, v any unit vector
            # orthogonal to c_i and c_j, and z^2 = 1 - |A c_i + B c_j|^2; the
            # colatitude of y spans A cos a_i + B cos a_j -+ |z| |E_perp|
            g = np.einsum("nk,nk->n", C[:, i], C[:, j])
            ok = 1.0 - g * g > 1e-12
            den = np.where(ok, 1.0 - g * g, 1.0)
            A = (cr[:, i] - g * cr[:, j]) / den
            B = (cr[:, j] - g * cr[:, i]) / den
            z2 = 1.0 - (A * A + B * B + 2.0 * A * B * g)
            e2 = 1.0 - (ca[:, i] ** 2 + ca[:, j] ** 2 - 2.0 * g * ca[:, i] * ca[:, j]) / den
            cos_t = (A * ca[:, i] + B * ca[:, j])[:, None] + np.multiply.outer(
                np.sqrt(np.fmax(z2, 0.0) * np.fmax(e2, 0.0)), [-1.0, 1.0])
            kinks.append(np.where((ok & (z2 >= 0.0))[:, None],
                                  np.arccos(np.clip(cos_t, -1.0, 1.0)), math.pi))
    return ca, sa, T, np.sort(np.clip(np.concatenate(kinks, axis=1), 0.0, math.pi), axis=1)


def _arc_union(U, beta):
    # fraction of the circle in the union of the arcs of half-widths beta
    # (n, m) about the directions U (n, m, 2): each arc from its start in
    # [0, 2 pi) and once more a turn earlier, both cut to [0, 2 pi], then
    # swept as intervals of the line
    two_pi = 2.0 * math.pi
    s = np.mod(np.arctan2(U[..., 1], U[..., 0]) - beta, two_pi)
    s = np.concatenate([s, s - two_pi], axis=-1)
    e = s + 2.0 * np.concatenate([beta, beta], axis=-1)
    order = np.argsort(s, axis=-1)
    s, e = (np.clip(np.take_along_axis(v, order, axis=-1), 0.0, two_pi) for v in (s, e))
    reach = np.maximum.accumulate(e, axis=-1)
    gaps = np.fmax(s[..., 1:] - reach[..., :-1], 0.0).sum(axis=-1)
    return (reach[..., -1] - s[..., 0] - gaps) / two_pi


def _section_fraction(T, beta, k: int):
    """Fraction of the unit sphere of R^k inside the union of the caps of
    radii beta (rows, nodes, m) about the directions T (rows, m, k).

    The sum of the caps' measures where no two of them overlap, else the
    merged arcs (k = 2) or ``_section_rule`` one dimension down.
    """
    full = (beta >= math.pi).any(axis=-1)
    f = np.where(full, 1.0, _cap_measure(beta, k).sum(axis=-1))
    norm = np.linalg.norm(T, axis=-1, keepdims=True)
    U = np.where(norm > 0.0, T / np.where(norm > 0.0, norm, 1.0), np.eye(k)[0])
    gap = np.arccos(np.clip(np.einsum("rik,rjk->rij", U, U), -1.0, 1.0))
    overlap = np.zeros(full.shape, dtype=bool)
    for i in range(beta.shape[-1]):
        for j in range(i + 1, beta.shape[-1]):
            overlap |= gap[:, i, j, None] < beta[..., i] + beta[..., j]
    rows, nodes = np.nonzero(overlap & ~full)
    if rows.size:
        f[rows, nodes] = _arc_union(U[rows], beta[rows, nodes]) if k == 2 else \
            _section_rule(U[rows], beta[rows, nodes], U[rows, 0])
    return f


def _section_rule(C, R, E, kernel=None, w0=math.inf):
    """int_S K sigma_1 over the union S of the caps of each row (centres
    C (n, m, k), radii R (n, m)) on the unit sphere of R^k, for all rows.

    With t the colatitude about the row's pole E (n, k), it is

        int_0^pi K(t) f(t) sin^(k-2) t dt / int_0^pi sin^(k-2) t dt,

    f(t) the fraction of the section sphere at t inside S
    (``_section_fraction``), K = kernel(points, t) (1 if None), peaking at
    t = 0 with the width w0 (n,).  Every piece between the kinks of f
    (``_section_caps``) is graded toward both its ends.
    """
    ca, sa, T, ends = _section_caps(C, R, E)
    cr = np.cos(R)
    m, k = C.shape[1:]

    def g(i, t):
        # blocks of about 2 M (node, cap) pairs, and as many of the caps'
        # kinks and directions one dimension down
        val = np.empty(t.shape)
        for b in _blocks(len(t), t.shape[1] * m * (m + k)):
            # the section at t lies in cap j where cos(psi) >= mu, psi the
            # azimuth from the centre's direction; about the pole (sin a = 0)
            # mu is +-1e300 with the sign of cos R - cos t cos a
            ib, ct, st = i[b], np.cos(t[b])[..., None], np.sin(t[b])[..., None]
            mu = (cr[ib, None] - ct * ca[ib, None]) / np.fmax(st * sa[ib, None], 1e-300)
            val[b] = _section_fraction(T[ib], np.arccos(np.clip(mu, -1.0, 1.0)), k - 1) \
                * st[..., 0] ** (k - 2)
        return val if kernel is None else val * kernel(i, t)

    return _piece_integrals(ends, g, w0) / _sin_power_total(k)


def surface_measure(S: CapSet) -> float:
    """Normalised surface measure of the cap union, sigma_1(S) in (0, 1]:
    the swept arcs in d = 2, else the section rule with K = 1 about the
    first cap's centre."""
    C, R = S.centers()[None], S.radii()[None]
    total = _arc_union(C, R) if S.d == 2 else _section_rule(C, R, C[:, 0])
    return min(float(total[0]), 1.0)


# -- frames and covering -----------------------------------------------------

def plane_frame(normal: tuple[float, ...]) -> np.ndarray:
    """Orthonormal (d-1, d) basis of the hyperplane orthogonal to ``normal``.

    Built from a Householder reflection, hence deterministic in the normal.
    """
    return _frames(np.asarray(normal, dtype=float)[None])[0]


def _covering_counts(S: CapSet, nodes: np.ndarray) -> np.ndarray:
    cosang = np.clip(nodes @ S.centers().T, -1.0, 1.0)
    return (np.arccos(cosang) <= S.radii()[None, :] + 1e-12).sum(axis=1)


# -- membership --------------------------------------------------------------

def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X (n, d), summed column by column.

    Bit for bit equal to ``np.linalg.norm(X, axis=1)`` for d <= 7, and
    cheaper for few columns, where numpy's row-wise reduction costs more
    than the arithmetic; from d = 8 on, numpy's pairwise summation may
    differ from it in the last bit.
    """
    s = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        c = X[:, j]
        s += c * c
    return np.sqrt(s)


def in_target_many(X: np.ndarray, T: Target) -> np.ndarray:
    """Vectorised membership of points X (n, d) in the thickened target."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return in_target_normed(X, T, row_norms(X))


def in_target_normed(X: np.ndarray, T: Target, r: np.ndarray) -> np.ndarray:
    """Membership of points X (n, d) in T, given their norms r = row_norms(X).

    The cheap coordinate is tested first, the radius of a shell point or
    the height of a slab point; the distance within the set is computed
    only for the points that pass it.  A slab ignores r.
    """
    out = np.zeros(len(X), dtype=bool)
    if T.kind == "shell":
        idx = np.flatnonzero((r >= 1.0 - T.eps) & (r <= 1.0 + T.eps) & (r > 0.0))
        if idx.size:
            ang = angular_distance_many(T.sphere_set, X[idx] / r[idx, None])
            out[idx] = ang <= T.delta + 1e-15
        return out
    D = T.plane_set
    idx = np.flatnonzero(np.abs(X @ np.asarray(D.normal)) <= T.eps)
    if idx.size:
        u = X[idx] @ plane_frame(D.normal).T  # frame coordinates of the projection
        out[idx] = plane_distance_many(D, u) <= T.delta + 1e-15
    return out


def in_target(x, T: Target) -> bool:
    """Exact membership of one point in the thickened target."""
    return bool(in_target_many(np.array([x], dtype=float), T)[0])


def plane_distance_many(D: PlanarSet, U: np.ndarray) -> np.ndarray:
    """In-plane distance from frame-coordinate points U (n, d-1) to D."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if D.shape == "ball":
        center, radius = D.params
        return np.maximum(np.linalg.norm(U - np.asarray(center), axis=1) - radius, 0.0)
    lo, hi = (np.asarray(p) for p in D.params)
    excess = np.maximum(np.maximum(lo - U, U - hi), 0.0)
    return np.linalg.norm(excess, axis=1)


# -- boundary samplers -------------------------------------------------------

def _sample_cap_directions(center, radius, d, n, rng) -> np.ndarray:
    """n samples from normalised surface measure restricted to one cap."""
    center = np.asarray(center, dtype=float)
    if d == 2:
        base = math.atan2(center[1], center[0])
        ang = base + rng.uniform(-radius, radius, size=n)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # colatitude: cos(t) has density prop. to (1-mu^2)^{(d-3)/2} truncated
    aa = (d - 1) / 2.0
    lo = float(sc.betainc(aa, aa, (1.0 + math.cos(radius)) / 2.0))
    q = rng.uniform(lo, 1.0, size=n)
    mu = 2.0 * sc.betaincinv(aa, aa, q) - 1.0
    st = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ center, center)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return mu[:, None] * center[None, :] + st[:, None] * g


def sample_boundary(set_, rng, size: int | None = None) -> np.ndarray:
    """Samples from the normalised surface measure of a CapSet, or from the
    normalised Lebesgue measure of a PlanarSet (as ambient points)."""
    n = 1 if size is None else size
    if isinstance(set_, CapSet):
        out = _sample_capset(set_, rng, n)
    elif isinstance(set_, PlanarSet):
        out = _sample_planarset(set_, rng, n)
    else:
        raise TypeError("sample_boundary expects a CapSet or a PlanarSet")
    return out[0] if size is None else out


def _sample_capset(S: CapSet, rng, n: int) -> np.ndarray:
    meas = np.array([_cap_measure(r, S.d) for _, r in S.caps])
    p = meas / meas.sum()
    out = np.empty((n, S.d))
    filled = 0
    while filled < n:
        todo = n - filled
        idx = rng.choice(len(S.caps), size=todo, p=p)
        pts = np.empty((todo, S.d))
        for k in np.unique(idx):
            m = int((idx == k).sum())
            c, r = S.caps[k]
            pts[idx == k] = _sample_cap_directions(c, r, S.d, m, rng)
        if len(S.caps) > 1:
            # overlap correction: thin by the covering count
            keep = rng.random(todo) * _covering_counts(S, pts) <= 1.0
            pts = pts[keep]
        out[filled:filled + len(pts)] = pts
        filled += len(pts)
    return out


def _sample_planarset(D: PlanarSet, rng, n: int) -> np.ndarray:
    k = D.d - 1
    if D.shape == "ball":
        center, radius = D.params
        g = rng.standard_normal((n, k))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        rad = radius * rng.random(n) ** (1.0 / k)
        u = np.asarray(center) + rad[:, None] * g
    else:
        lo, hi = (np.asarray(p) for p in D.params)
        u = lo + (hi - lo) * rng.random((n, k))
    return u @ plane_frame(D.normal)
