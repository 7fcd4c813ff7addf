"""Target sets on the unit sphere and on a hyperplane.

A spherical target is a finite union of closed geodesic caps; a planar
target is a ball or an axis-aligned box inside the hyperplane orthogonal
to a given unit vector.  Both carry exact membership tests, surface
measures under the unit-mass normalisation, quadrature rules and
boundary samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sc
from scipy.integrate import quad

_GL_PANEL = 64


@lru_cache(maxsize=32)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def gauss_panels(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ~m nodes on [a, b].

    Panels of at most 64 nodes keep the cost linear in m (a single
    high-order rule is quadratic to build).
    """
    n_panels = max(1, (m + _GL_PANEL - 1) // _GL_PANEL)
    per = min(m, _GL_PANEL) if n_panels == 1 else _GL_PANEL
    xs, ws = _leggauss(per)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).reshape(-1)
    weights = (half[:, None] * ws[None, :]).reshape(-1)
    return nodes, weights


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


# -- surface measure ---------------------------------------------------------

def _sin_power_total(d: int) -> float:
    # int_0^pi sin^{d-2} t dt
    return math.sqrt(math.pi) * math.exp(sc.gammaln((d - 1) / 2.0) - sc.gammaln(d / 2.0))


def _cap_measure(radius: float, d: int) -> float:
    """Normalised surface measure of a single cap of angular radius r."""
    if radius >= math.pi:
        return 1.0
    if d == 2:
        return radius / math.pi
    s2 = math.sin(radius) ** 2
    half = 0.5 * float(sc.betainc((d - 1) / 2.0, 0.5, s2))
    return half if radius <= math.pi / 2.0 else 1.0 - half


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


def _pairwise_disjoint(caps) -> bool:
    n = len(caps)
    for i in range(n):
        ci, ri = caps[i]
        for j in range(i + 1, n):
            cj, rj = caps[j]
            ang = math.acos(min(1.0, max(-1.0, float(np.dot(ci, cj)))))
            if ang <= ri + rj:
                return False
    return True


def _section_caps(caps, pole: np.ndarray, t: float):
    """Cross-section of a cap union at colatitude t from the pole.

    Returns ``None`` when the section is the whole lower-dimensional
    sphere, else a (possibly empty) list of section caps given as
    (tangential unit center in ambient coordinates, angular radius).
    """
    sections = []
    st = math.sin(t)
    for c, r in caps:
        c = np.asarray(c)
        ca = min(1.0, max(-1.0, float(np.dot(c, pole))))
        a = math.acos(ca)
        sa = math.sin(a)
        if st < 1e-12:
            # the section is a single point (pole or antipode)
            if abs(t - a) <= r + 1e-15:
                return None
            continue
        if sa < 1e-12:
            # cap centered at the pole or its antipode: section full or empty
            if abs(t - a) <= r + 1e-15:
                return None
            continue
        mu = (math.cos(r) - math.cos(t) * ca) / (st * sa)
        if mu >= 1.0:
            continue  # empty intersection at this colatitude
        if mu <= -1.0:
            return None  # covers the whole section circle
        tang = c - ca * pole
        tang = tang / np.linalg.norm(tang)
        sections.append((tuple(tang), math.acos(mu)))
    return sections


def _union_measure(caps, d: int) -> float:
    """Normalised measure of a cap union on the sphere of R^d."""
    if d == 2:
        arcs = _merge_arcs(caps)
        return sum(hi - lo for lo, hi in arcs) / (2.0 * math.pi)
    if len(caps) == 1:
        return _cap_measure(caps[0][1], d)
    if _pairwise_disjoint(caps):
        return sum(_cap_measure(r, d) for _, r in caps)
    # overlapping union: integrate lower-dimensional sections over colatitude
    pole = np.asarray(caps[0][0])
    kinks = sorted({0.0, math.pi} | {
        v for c, r in caps
        for a in [math.acos(min(1.0, max(-1.0, float(np.dot(np.asarray(c), pole)))))]
        for v in (abs(a - r), min(a + r, 2.0 * math.pi - a - r))
        if 0.0 < v < math.pi})
    z = _sin_power_total(d)
    frame = plane_frame(tuple(pole))

    def integrand(t):
        secs = _section_caps(caps, pole, t)
        if secs is None:
            inner = 1.0
        elif not secs:
            inner = 0.0
        else:
            # project tangential centers to the pole-orthogonal frame
            proj = [(tuple(frame @ np.asarray(c)), r) for c, r in secs]
            inner = _union_measure(proj, d - 1)
        return math.sin(t) ** (d - 2) * inner / z

    total = 0.0
    pts = kinks
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-11, epsrel=1e-10)
        total += val
    return total


def surface_measure(S: CapSet) -> float:
    """Normalised surface measure of the cap union, sigma_1(S) in (0, 1]."""
    return min(_union_measure(S.caps, S.d), 1.0)


# -- quadrature rules --------------------------------------------------------

def plane_frame(normal: tuple[float, ...]) -> np.ndarray:
    """Orthonormal (d-1, d) basis of the hyperplane orthogonal to ``normal``.

    Built from a Householder reflection, hence deterministic in the normal.
    """
    v = np.asarray(normal, dtype=float)
    d = v.size
    e = np.zeros(d)
    e[-1] = 1.0
    w = v - e
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        h = np.eye(d)
    else:
        w = w / nw
        h = np.eye(d) - 2.0 * np.outer(w, w)
    # h maps e_d to v; its remaining columns span the hyperplane
    return h[:, : d - 1].T


def _covering_counts(S: CapSet, nodes: np.ndarray) -> np.ndarray:
    cosang = np.clip(nodes @ S.centers().T, -1.0, 1.0)
    return (np.arccos(cosang) <= S.radii()[None, :] + 1e-12).sum(axis=1)


def _cap_product_nodes(center, radius, d, n_target):
    """Product quadrature on one cap: Gauss-Legendre in colatitude, uniform
    azimuth (d=3) or a cascaded rule (d>=4)."""
    center = np.asarray(center)
    n_t = max(4, int(round(math.sqrt(n_target / 3.0))))
    n_inner = max(8, n_target // n_t)
    t, wq = gauss_panels(0.0, radius, n_t)
    wt = wq * np.sin(t) ** (d - 2) / _sin_power_total(d)
    frame = plane_frame(tuple(center))  # (d-1, d)
    if d == 3:
        phi = (np.arange(n_inner) + 0.5) * 2.0 * math.pi / n_inner
        ring = np.stack([np.cos(phi), np.sin(phi)], axis=1)  # (m, 2)
        w_in = np.full(n_inner, 1.0 / n_inner)
    else:
        sub = CapSet.full_sphere(d - 1)
        ring, w_in = quadrature_nodes(sub, n_inner)
    ring_amb = ring @ frame  # (m, d), unit tangent vectors
    nodes = np.cos(t)[:, None, None] * center[None, None, :] \
        + np.sin(t)[:, None, None] * ring_amb[None, :, :]
    weights = wt[:, None] * w_in[None, :]
    return nodes.reshape(-1, d), weights.reshape(-1)


def quadrature_nodes(S: CapSet, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights realising integration against sigma_1 restricted to S
    (d >= 3; d = 2 harmonic weights use a graded rule of their own).

    Weights are rescaled so they sum exactly to surface_measure(S).
    Raises if n is too small to give every cap at least 8 nodes.
    """
    if S.d < 3:
        raise ValueError("quadrature rules are built for d >= 3 only")
    if n < 8 * len(S.caps):
        raise ValueError(f"need at least {8 * len(S.caps)} nodes for {len(S.caps)} caps")
    meas = np.array([_cap_measure(r, S.d) for _, r in S.caps])
    shares = np.maximum(meas / meas.sum(), 0.02)
    nodes, weights = [], []
    for (c, r), share in zip(S.caps, shares / shares.sum()):
        nd, w = _cap_product_nodes(c, r, S.d, max(16, int(n * share)))
        nodes.append(nd)
        weights.append(w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    if len(S.caps) > 1:
        weights = weights / _covering_counts(S, nodes)
    return nodes, weights * (surface_measure(S) / weights.sum())


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
