"""Spectral diagnostics of the iteration maps.

Mechanizes the local convergence theory: spectra of the classical iteration
matrix S = L^{-1} N'(u*) and of the stabilized-map Jacobian
F'(u*) = S + u* (grad s(u*)), hypothesis reports for the convergence theorem,
symmetry generators and their eigenrelations, and orbital-convergence
identification (phase-line fit, orbit-parameter estimation).  The spectra
come from a thick-restart Arnoldi of this module, on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .factors import StabilizingFactor
from .linops import VectorSpace
from .problems import ProblemModel
from .spectral import Field, derivative

UNIT_TOL = 1e-4
RESIDUAL_TOL = 1e-8               # largest eigen-residual of a verified report
PARALLEL_TOL = 1e-6               # 1 - |cos| below which an S eigenvector is u*
# Ritz residual / |eigenvalue| of a converged Arnoldi pair: the measured
# eigen-residuals of the bundled recipes sit at 2e-15 to 1.3e-14 (the
# oracle's own rounding) from 1e-13 down to eps, but at eps table2 takes
# one restart more (38 S actions, not 29)
ARNOLDI_TOL = 1e-14
ARNOLDI_RESTARTS = 10_000         # Krylov-Schur restarts before Arnoldi stops unconverged
_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# operator actions


def iteration_matrix_action(problem: ProblemModel, u_star: Field, v: Field) -> Field:
    """S v = solve_L(N'(u*) v), pinned modes zeroed."""
    return problem.solve_L(problem.jacN_action(u_star, v))


def s_operator(problem: ProblemModel, u_star: Field) -> tuple[Callable, VectorSpace]:
    """Vector-level oracle for S on the problem's linearization space."""
    space = problem.linearization_space()
    return space.wrap(lambda f: iteration_matrix_action(problem, u_star, f)), space


def f_operator(problem: ProblemModel, factor: StabilizingFactor, u_star: Field,
               grad: Callable[[Field, Field], float] | None = None) -> tuple[Callable, VectorSpace]:
    """Vector-level oracle for F'(u*); the factor gradient is frozen at u*
    (`grad` passes `factor.gradient(u_star)` when the caller has it).
    Each action evaluates N'(u*) v once, for S v and for the gradient."""
    space = problem.linearization_space()
    grad = factor.gradient(u_star) if grad is None else grad

    def action(f: Field) -> Field:
        jNv = problem.jacN_action(u_star, f)
        return problem.solve_L(jNv) + grad(f, jNv) * u_star

    return space.wrap(action), space


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray          # complex, non-increasing modulus
    residuals: np.ndarray            # ||A v - lambda v|| / ||v|| per eigenpair
    near_unit: np.ndarray            # |.| within UNIT_TOL of 1
    dimension: int
    k: int
    eigenvectors: np.ndarray         # columns; not serialized
    converged: bool = True
    spare_pairs: tuple = ()          # (eigenvalue, eigenvector) past the top k; not serialized

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.eigenvalues)

    @property
    def verified(self) -> bool:
        """The solver converged and every eigen-residual is at most RESIDUAL_TOL."""
        return bool(self.converged and np.all(self.residuals <= RESIDUAL_TOL))

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "moduli": [float(m) for m in self.moduli],
            "eigen_residuals": [float(r) for r in self.residuals],
            "near_unit_modulus": [bool(b) for b in self.near_unit],
            "dimension": self.dimension,
            "k": self.k,
            "converged": self.converged,
            "verified": self.verified,
        }


def top_eigenvalues(action: Callable[[np.ndarray], np.ndarray], dimension: int, k: int,
                    spare: int = 0) -> SpectrumReport:
    """k largest-modulus eigenvalues of a matrix-free linear operator.

    Thick-restart Arnoldi (`_krylov_schur`, largest modulus) for k + spare
    pairs; 1 <= k and k + spare < dimension - 1 is ARPACK's limit, kept,
    and anything else raises ValueError.  A stop at the restart cap gives an
    unconverged report on the pairs that did converge, or RuntimeError
    without a single one.  The top k pairs are the report; the `spare` next
    ones are kept, unmeasured, as `spare_pairs`.  The start vector is
    pseudo-random with a fixed seed, so runs repeat exactly and no parity
    class is missing from the Krylov space (a constant start vector is even,
    and a parity-preserving operator keeps it even).  Eigen-residuals are
    measured through the oracle itself.
    """
    if not (k >= 1 and spare >= 0 and k + spare < dimension - 1):
        raise ValueError(f"k must satisfy 1 <= k and k + spare < dimension - 1 = {dimension - 1}, "
                         f"got k = {k}, spare = {spare}")
    eigvals, eigvecs, converged = _krylov_schur(action, dimension, k + spare)
    if len(eigvals) == 0:
        raise RuntimeError(f"Arnoldi did not converge: none of the {k + spare} eigenpairs "
                           f"requested converged in {ARNOLDI_RESTARTS} restarts")
    order = np.argsort(-np.abs(eigvals), kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    return _report(action, dimension, eigvals[:k], eigvecs[:, :k], k, converged,
                   spare_pairs=tuple(zip(eigvals[k:], eigvecs[:, k:].T)))


def _krylov_schur(action: Callable[[np.ndarray], np.ndarray], dimension: int,
                  nev: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """The nev largest-modulus eigenpairs of `action` (complex eigenvalues,
    unit eigenvectors as columns) and whether all converged; at the restart
    cap, only the pairs that did.

    Krylov-Schur restarts (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001) of
    an Arnoldi basis of ARPACK's default size ncv = max(2 nev + 1, 20), at
    most dimension - 1.  A restart keeps the converged wanted pairs and half
    of the other Ritz pairs by modulus, as a QR'd real basis of their Ritz
    vectors (conjugate pairs whole), so the projected matrix gains an arrow
    row.  A pair has converged when its Ritz residual |beta y_m| is at most
    ARNOLDI_TOL |theta|, ARPACK's test.  Gram-Schmidt runs two classical
    passes; a residual at roundoff (an invariant Krylov space) is replaced by
    a fresh direction from the start vector's generator, so repeated
    eigenvalues are found and runs repeat exactly.  The products on
    dimension-length vectors are einsum loops, not BLAS calls, so their
    rounding cannot follow the BLAS thread count and no BLAS thread pool
    wakes beside the LU solves of the ground state.
    """
    m = min(dimension - 1, max(2 * nev + 1, 20))
    rng = np.random.default_rng(0)
    basis = np.zeros((m + 1, dimension))      # orthonormal rows
    h = np.zeros((m + 1, m))                  # action(basis[:m].T) = basis.T @ h
    basis[0] = rng.standard_normal(dimension)
    basis[0] /= _norm(basis[0])
    start = 0
    for restart in range(ARNOLDI_RESTARTS):
        for j in range(start, m):
            w, h[:j + 1, j] = _orthogonalize(basis[:j + 1], action(basis[j]))
            h[j + 1, j] = norm = _norm(w)
            # h[:j + 2, j] holds the coordinates of action(basis[j])
            if norm <= dimension * _EPS * math.hypot(*h[:j + 2, j]):
                h[j + 1, j] = 0.0
                w, _ = _orthogonalize(basis[:j + 1], rng.standard_normal(dimension))
                norm = _norm(w)
            basis[j + 1] = w / norm

        beta = h[m, m - 1]
        theta, y = np.linalg.eig(h[:m])
        order = np.argsort(-np.abs(theta), kind="stable")
        theta, y = theta[order].astype(complex), y[:, order]
        done = np.abs(beta * y[m - 1, :nev]) <= ARNOLDI_TOL * np.maximum(_EPS ** (2 / 3),
                                                                         np.abs(theta[:nev]))
        if done.all() or restart == ARNOLDI_RESTARTS - 1:
            y = y[:, :nev][:, done]
            vectors = (np.einsum("ik,in->kn", y.real, basis[:m])
                       + 1j * np.einsum("ik,in->kn", y.imag, basis[:m]))
            return theta[:nev][done], vectors.T, bool(done.all())

        nconv = int(np.count_nonzero(done))
        keep = min(max(nev, nconv + (m - nconv) // 2), m - 1)
        if theta[keep - 1].imag > 0:      # the first of a conjugate pair: keep both
            keep = keep + 1 if keep + 1 < m else keep - 1
        # a real basis of the kept Ritz vectors: Re y, and Im y for the second of a pair
        q, _ = np.linalg.qr(np.where(theta[:keep].imag < 0, y[:, :keep].imag, y[:, :keep].real))
        arrow = beta * q[m - 1]
        h_kept = q.T @ h[:m] @ q
        basis[:keep] = np.einsum("ik,in->kn", q, basis[:m])
        basis[keep] = basis[m]
        h[:] = 0.0
        h[:keep, :keep] = h_kept
        h[keep, :keep] = arrow
        start = keep


def _norm(w: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("i,i->", w, w)))


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w less its projection on the orthonormal rows of `basis`, by two
    classical Gram-Schmidt passes, and the projection's coefficients."""
    coeffs = np.einsum("ij,j->i", basis, w)
    w = w - np.einsum("i,ij->j", coeffs, basis)
    again = np.einsum("ij,j->i", basis, w)
    return w - np.einsum("i,ij->j", again, basis), coeffs + again


def _report(action: Callable[[np.ndarray], np.ndarray], dimension: int, eigvals: np.ndarray,
            eigvecs: np.ndarray, k: int, converged: bool, **extra) -> SpectrumReport:
    """A report on the given eigenpairs, each measured through the oracle."""
    residuals = np.empty(len(eigvals))
    for i, lam in enumerate(eigvals):
        v = eigvecs[:, i]
        # the oracle acts on real vectors; split a complex eigenvector, and
        # skip the action on the imaginary part of a real one (it is 0)
        av = action(np.ascontiguousarray(v.real))
        if v.imag.any():
            av = av + 1j * action(np.ascontiguousarray(v.imag))
        residuals[i] = np.linalg.norm(av - lam * v) / np.linalg.norm(v)

    near_unit = np.abs(np.abs(eigvals) - 1.0) <= UNIT_TOL
    return SpectrumReport(
        eigenvalues=eigvals, residuals=residuals, near_unit=near_unit,
        dimension=dimension, k=k, eigenvectors=eigvecs,
        converged=converged, **extra,
    )


def iteration_matrix_spectrum(problem: ProblemModel, u_star: Field, k: int,
                              spare: int = 0) -> SpectrumReport:
    """Top-k spectrum of S; `spare` more Ritz pairs ride along for `jacobian_spectrum`."""
    action, space = s_operator(problem, u_star)
    return top_eigenvalues(action, space.dim, k, spare)


def jacobian_spectrum(problem: ProblemModel, factor: StabilizingFactor, u_star: Field,
                      spec_S: SpectrumReport, k: int,
                      grad: Callable[[Field, Field], float] | None = None) -> SpectrumReport:
    """Top-k spectrum of F'(u*), derived from `spec_S`, the top k + 1 (or
    more) of S, without an eigensolver run of its own.

    F' = S + u* (grad s(u*)) is a rank-one update of S, and S u* = p u*
    (Golub, SIAM Rev. 15, 1973).  So (mu, u*) is an eigenpair of F', with
    mu = p + grad s(u*).u* = p + q s(u*) by Euler's identity, i.e. p + q at a
    solution; and every other eigenpair (lam, v) of S gives the eigenpair
    (lam, v + c u*) with c = grad s(u*).v / (lam - mu), extended
    complex-linearly to a complex v.  The S pair at p is dropped when its
    vector is u*.  At a resonance, |lam - mu| <= RESIDUAL_TOL max(1, |lam|)
    (closer than the residual gate resolves), c is 0: a Jordan block (grad s(u*).v != 0) then shows as a
    large residual instead of a division by about 0.  Every pair kept is
    measured through `f_operator` (`grad` passes `factor.gradient(u_star)`
    when the caller has it).
    """
    pairs = [*zip(spec_S.eigenvalues, spec_S.eigenvectors.T), *spec_S.spare_pairs]
    if spec_S.converged and len(pairs) <= k:
        raise ValueError(f"the top {k} of F' needs the top {k + 1} of S, got {len(pairs)}")
    p, q = problem.degree, factor.degree
    grad = factor.gradient(u_star) if grad is None else grad
    action, space = f_operator(problem, factor, u_star, grad)
    u_vec = space.to_vector(u_star)
    u_norm = np.linalg.norm(u_vec)

    def grad_dot(x: np.ndarray) -> float:
        f = space.from_vector(x)
        return grad(f, problem.jacN_action(u_star, f))

    # mu, not the nominal p + q: s(u*) = 1 holds only to the state's factor
    # discrepancy, and F' u* - mu u* is then just S u* - p u*
    mu = p + grad_dot(u_vec)
    candidates = [(complex(mu), u_vec.astype(complex))]
    for lam, v in pairs:
        if (abs(lam - p) <= 1e-3 * max(1.0, abs(p))
                and abs(np.vdot(u_vec, v)) >= (1.0 - PARALLEL_TOL) * u_norm * np.linalg.norm(v)):
            continue  # S's pair (p, u*), which (mu, u*) replaces
        delta = lam - mu
        c = 0.0
        if abs(delta) > RESIDUAL_TOL * max(1.0, abs(lam)):
            c = (grad_dot(v.real) + (1j * grad_dot(v.imag) if v.imag.any() else 0.0)) / delta
        candidates.append((lam, v + c * u_vec))
    candidates.sort(key=lambda pair: -abs(pair[0]))  # stable
    eigvals = np.array([lam for lam, _ in candidates[:k]])
    eigvecs = np.column_stack([w for _, w in candidates[:k]])
    return _report(action, space.dim, eigvals, eigvecs, k, spec_S.converged)


def hypothesis_verdicts(spec_S: SpectrumReport, spec_F: SpectrumReport, shift_check: dict,
                        p: float, seed_vector: np.ndarray | None = None) -> dict:
    """The hypothesis report: the local-convergence hypotheses at S's spectrum.

    (i) the dominant eigenvalue equals the homogeneity degree p and is simple;
    (ii) every other eigenvalue has modulus at most 1 (+ tolerance);
    (iii) unit-modulus eigenvalues are numerically semisimple, and the seed
    component inside their eigenspace is quantified (a floating-point zero
    component is unattainable, so the report measures instead of asserting).
    The verdict names the first of these to fail: the residual gates of S and
    F' (`eigenpairs_verified`), the given `spectrum_shift_check`, (ii), (i);
    `satisfied` is true exactly when none fails.
    """
    lam = spec_S.eigenvalues
    dominant = lam[0]
    dominant_matches_p = bool(abs(dominant - p) <= 1e-3 * max(1.0, abs(p)))
    cluster = np.abs(lam - dominant) <= UNIT_TOL * max(1.0, abs(dominant))
    dominant_simple = bool(np.count_nonzero(cluster) == 1)
    others = lam[1:]
    others_within_unit = bool(np.all(np.abs(others) <= 1.0 + UNIT_TOL))

    unit_idx = [i for i in range(len(lam)) if spec_S.near_unit[i]]
    unit_entries = [{"eigenvalue": [float(lam[i].real), float(lam[i].imag)],
                     "eigen_residual": float(spec_S.residuals[i])} for i in unit_idx]
    semisimple_proxy = None
    if unit_idx:
        vecs = spec_S.eigenvectors[:, unit_idx]
        svals = np.linalg.svd(vecs, compute_uv=False)
        rank = int(np.count_nonzero(svals > 1e-6 * svals[0]))
        semisimple_proxy = {"cluster_size": len(unit_idx), "eigenvector_rank": rank,
                            "independent": rank == len(unit_idx)}
    if seed_vector is not None and unit_idx:
        # orthogonal projection of the seed onto the invariant subspace of the
        # unit eigenvalues clustered around each one
        seed_norm = float(np.linalg.norm(seed_vector))
        for i, entry in zip(unit_idx, unit_entries):
            cluster = [j for j in unit_idx if abs(lam[j] - lam[i]) <= 10 * UNIT_TOL]
            q = _cluster_basis(spec_S, cluster)
            comp = float(np.linalg.norm(q.conj().T @ seed_vector.astype(q.dtype)))
            entry["seed_component"] = comp
            entry["seed_component_relative"] = comp / seed_norm if seed_norm else np.nan

    unverified = [name for name, spec in (("S", spec_S), ("F'", spec_F)) if not spec.verified]
    verdict = (
        f"eigenpairs of {' and '.join(unverified)} unverified; hypotheses not judged" if unverified
        else "spectrum shift check failed; hypotheses not judged" if not shift_check["ok"]
        else "hypothesis (ii) violated" if not others_within_unit
        else "hypothesis (i) violated" if not (dominant_matches_p and dominant_simple)
        else "hypotheses (i)-(ii) satisfied"
    )
    return {
        "dominant_eigenvalue": [float(dominant.real), float(dominant.imag)],
        "p": float(p),
        "i_dominant_matches_p": dominant_matches_p,
        "i_dominant_simple": dominant_simple,
        "ii_rest_within_unit_modulus": others_within_unit,
        "iii_unit_modulus_eigenvalues": unit_entries,
        "iii_semisimple_proxy": semisimple_proxy,
        "eigenpairs_verified": not unverified,
        "satisfied": verdict == "hypotheses (i)-(ii) satisfied",
        "verdict": verdict,
        "spectrum_shift_check": shift_check,
    }


def _cluster_basis(report: SpectrumReport, indices: list[int]) -> np.ndarray:
    """Orthonormal basis of the invariant subspace for an eigenvalue cluster:
    a QR of the cluster's Ritz vectors."""
    q, _ = np.linalg.qr(report.eigenvectors[:, indices])
    return q


def spectrum_shift_check(problem: ProblemModel, factor: StabilizingFactor, u_star: Field,
                         tol: float = 1e-4, grad: Callable[[Field, Field], float] | None = None) -> dict:
    """The eigenrelation F' u* = (p+q) u* that the shift law
    spec F' = (spec S \\ {p}) u {p+q} rests on, measured through `f_operator`.

    `jacobian_spectrum` derives the rest of spec F' from spec S by the
    rank-one identity, so this is the one relation it takes on trust.  `ok`
    requires ||F' u* - (p+q) u*|| / ||u*|| to be at most tol; `grad` is as
    in `f_operator`.
    """
    action, space = f_operator(problem, factor, u_star, grad)
    u_vec = space.to_vector(u_star)
    lam = problem.degree + factor.degree
    residual = float(np.linalg.norm(action(u_vec) - lam * u_vec) / np.linalg.norm(u_vec))
    return {"ok": residual <= tol, "fixed_point_residual": residual, "tolerance": tol}


# ---------------------------------------------------------------------------
# symmetries


def symmetry_generators(problem: ProblemModel, u: Field) -> list[Field]:
    """Infinitesimal generators of the declared symmetry group, evaluated at u."""
    gens = []
    for name in problem.symmetries:
        if name == "gauge":
            gens.append(u.with_values(1j * u.values))
        elif name in ("translation_x", "translation_z"):  # along axis 0 or 1
            gens.append(derivative(u, 1, axis=("translation_x", "translation_z").index(name)))
        else:
            raise ValueError(f"unknown symmetry {name!r}")
    return gens


# ---------------------------------------------------------------------------
# orbital identification


@dataclass(frozen=True)
class OrbitFit:
    slope: float | None = None
    intercept: float | None = None
    intercept_mod_2pi: float | None = None
    x0: float | None = None
    theta0: float | None = None
    sup_distance: float | None = None
    modulus_sup_distance: float | None = None
    window: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _default_window(modulus: np.ndarray) -> tuple[int, int]:
    """Contiguous node range around the modulus peak where |U| >= 0.05 max."""
    peak = int(np.argmax(modulus))
    keep = modulus >= 0.05 * modulus[peak]
    lo = peak
    while lo > 0 and keep[lo - 1]:
        lo -= 1
    hi = peak
    while hi < len(modulus) - 1 and keep[hi + 1]:
        hi += 1
    return lo, hi + 1


def fit_phase_line(U_f: Field, window: tuple[int, int] | None = None) -> OrbitFit:
    """Least-squares line through the unwrapped phase of a 1D complex field.

    The phase is unwrapped by cumulative 2-pi jump correction scanning
    outward from the modulus peak, then fit as y = slope*x + intercept on the
    nodes start <= j < stop of window = (start, stop), 0 <= start < stop <= m
    on m nodes (default: nodes with |U| >= 0.05 max|U| around the peak).
    """
    if np.ndim(U_f.values) != 1:
        raise ValueError("phase-line fitting is defined for 1D fields")
    vals = U_f.values
    modulus = np.abs(vals)
    start, stop = _default_window(modulus) if window is None else window
    if not 0 <= start < stop <= len(vals):
        raise ValueError(f"phase-fit window {window} must satisfy 0 <= start < stop <= {len(vals)}")
    if stop - start < 8:
        raise ValueError(f"phase-fit window has {stop - start} nodes; need at least 8")
    idx = np.arange(start, stop)

    peak = idx[np.argmax(modulus[idx])]
    phase = np.angle(vals)
    unwrapped = np.empty_like(phase)
    unwrapped[peak:] = np.unwrap(phase[peak:])
    unwrapped[: peak + 1] = np.unwrap(phase[: peak + 1][::-1])[::-1]

    x = U_f.grid.nodes[idx]
    y = unwrapped[idx]
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return OrbitFit(
        slope=float(slope),
        intercept=float(intercept),
        intercept_mod_2pi=float(intercept % (2.0 * np.pi)),
        window=(int(start), int(stop)),
    )


def orbit_match(U_f: Field, exact: Callable[..., Field]) -> OrbitFit:
    """Group parameters (x0, theta0) of the orbit element that U_f matches, in
    the group-action convention u(x) -> e^{i theta0} u(x + x0), where
    exact(x0, theta0) returns that element.

    On the orbit |U_f| is a translate of |exact()|, so by the shift theorem the
    first Fourier modes give x0 = angle(|U_f|^_1 / |exact()|^_1) / k1, unique
    in (-l, l]; theta0 is the phase of <exact(x0), U_f>.  Reports the
    sup-distance and modulus sup-distance to the matched element.
    """
    modulus = np.abs(U_f.values)
    if modulus.max() == 0.0:
        raise ValueError("cannot match a zero field: no modulus peak")
    ratio = np.fft.fft(modulus)[1] / np.fft.fft(np.abs(exact().values))[1]
    x0 = float(np.angle(ratio) / U_f.grid.wavenumbers[1])
    theta0 = float(np.angle(np.vdot(exact(x0).values, U_f.values)))
    matched = exact(x0, theta0).values
    return replace(fit_phase_line(U_f), x0=x0, theta0=theta0,
                   sup_distance=float(np.max(np.abs(U_f.values - matched))),
                   modulus_sup_distance=float(np.max(np.abs(modulus - np.abs(matched)))))
