import collections
import importlib.util
import sys
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from neqfridge import (
    CoolingWindow,
    ModelParams,
    cooling_window,
    cop_carnot,
    cop_g,
    eta_star_max,
    maximize_cooling_powers,
    resonant_frame,
)
from neqfridge.dissipation import LindbladChannel
from neqfridge.experiments import _brent_max, _chandrupatla
from neqfridge.model import REFERENCE
from neqfridge.linalg import IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, pauli_string
from neqfridge.steadystate import _FAMILY

# canonical benchmark point used throughout the suite
P0 = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4.0 / 3.0, t2=2.0, t3=4.0, p=0.01, g=0.01)


def random_feasible(rng: np.random.Generator) -> ModelParams:
    """Draw a random parameter point in the fridge operating regime."""
    e1 = rng.uniform(0.5, 2.0)
    t1 = rng.uniform(0.5, 2.0)
    t2 = t1 + rng.uniform(0.0, 2.0)
    t3 = t2 + rng.uniform(0.0, 4.0)
    return ModelParams(
        e1=e1,
        e3=rng.uniform(2.0, 8.0),
        gamma=rng.uniform(0.0, 0.49) * e1,
        t1=t1,
        t2=t2,
        t3=t3,
        p=rng.uniform(0.002, 0.03),
        g=rng.uniform(0.002, 0.03),
    )


def benchmark_workloads():
    """The benchmark's workload module, which draws its seeded oracle points."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def counting(monkeypatch, *functions) -> tuple[collections.Counter, collections.Counter]:
    """Count each function's calls, and the elements of their first
    arguments, through every package module that binds its name, so that no
    caller goes around the counter."""
    calls, points = collections.Counter(), collections.Counter()
    for function in functions:
        def counted(*args, _function=function, **kwargs):
            calls[_function.__name__] += 1
            points[_function.__name__] += np.size(args[0])
            return _function(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("neqfridge") and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counted)
    return calls, points


def random_hermitian(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (raw + raw.conj().T)


@pytest.fixture
def p0() -> ModelParams:
    return P0


# Kron-built references.  The package builds these operators from constant
# tables and batched products; the tests compare it against these direct
# constructions, one jump and one tensor factor at a time.
SINGLE_QUBIT = {
    "i": IDENTITY_2,
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "+": SIGMA_PLUS,
    "-": SIGMA_MINUS,
}


def fridge_tilde_operator(frame, ops: str) -> np.ndarray:
    """4x4 machine operator from dressed single-qubit operators, e.g. 'z+'."""
    bare = np.kron(SINGLE_QUBIT[ops[0]], SINGLE_QUBIT[ops[1]])
    return frame.unitary.conj().T @ bare @ frame.unitary


def tilde_operator(frame, first: str, fridge_ops: str) -> np.ndarray:
    """8x8 operator: bare op on the target times a dressed machine operator."""
    return np.kron(SINGLE_QUBIT[first], fridge_tilde_operator(frame, fridge_ops))


def weighted_jumps(channel) -> list[tuple[np.ndarray, float]]:
    """(L, w) pairs of a channel: each raising jump at rate*r, then its adjoint at rate*(1 - r)."""
    pairs = []
    for raising, r in zip(channel.raising, channel.populations):
        pairs.append((raising, channel.rate * r))
        pairs.append((raising.conj().T, channel.rate * (1.0 - r)))
    return pairs


def pauli_null_space(liouvillian: np.ndarray) -> np.ndarray:
    """Kernel state from one real SVD of the whole generator in the Pauli-string
    basis, its strings built one kron at a time: the reference for the
    package's block-by-block solve."""
    d = int(round(np.sqrt(liouvillian.shape[0])))
    n_qubits = d.bit_length() - 1
    strings = []
    for labels in product("ixyz", repeat=n_qubits):
        string = np.ones((1, 1), dtype=complex)
        for label in labels:
            string = np.kron(string, SINGLE_QUBIT[label])
        strings.append(string)
    t = np.array([string.reshape(-1, order="F") for string in strings]).T
    rotated = t.conj().T @ liouvillian @ t / d
    assert np.max(np.abs(rotated.imag)) <= 1e-12 * np.max(np.abs(rotated.real))
    _, s, vh = np.linalg.svd(rotated.real)
    assert s[-2] >= 1e-9 * s[0]
    rho = sum(v * string for v, string in zip(vh[-1], strings))
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def loop_apply(jumps, rho: np.ndarray) -> np.ndarray:
    """Channel action summed one (L, w) jump at a time."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for op, weight in jumps:
        opd = op.conj().T
        anti = opd @ op
        out += weight * (op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti))
    return out


def kron_commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[h, rho] under column-stacking, from two krons."""
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def kron_dissipator_superop(jump: np.ndarray, weight: float) -> np.ndarray:
    """Matrix of rho -> weight * (L rho L+ - {L+L, rho}/2), from three krons."""
    eye = np.eye(jump.shape[0], dtype=complex)
    anti = jump.conj().T @ jump
    return weight * (np.kron(jump.conj(), jump) - 0.5 * np.kron(eye, anti)
                     - 0.5 * np.kron(anti.T, eye))


def channel_superop(channel) -> np.ndarray:
    """64x64 matrix of a channel, summed one weighted jump at a time from
    :func:`kron_dissipator_superop`."""
    return sum(kron_dissipator_superop(op, weight) for op, weight in weighted_jumps(channel))


def kron_generator(parts) -> np.ndarray:
    """Lab-frame 64x64 generator of a point's Hamiltonian and three channels,
    from the kron references."""
    return kron_commutator_superop(parts.hams.htot) + sum(
        channel_superop(channel) for channel in (parts.d1, parts.d2, parts.d3))


def dressed(superop: np.ndarray, frame) -> np.ndarray:
    """A lab-frame superoperator in the dressed frame: S G S^+ with S =
    kron(conj W, W), the matrix of rho -> W rho W^+, formed explicitly."""
    s = np.kron(frame.dressing.conj(), frame.dressing)
    return s @ superop @ s.conj().T


# Lab-frame operators of the localization identity (Hofer et al., NJP 19,
# 123037 (2017)): the package checks it as a contraction of its dressed
# tables; the tests build the local channels and the family here.

def tilde_channel(nu: int, frame, pops, rate: float) -> LindbladChannel:
    """Local reset channel on dressed qubit nu (2 or 3) with its mixed population."""
    r = pops.rtilde2 if nu == 2 else pops.rtilde3
    return LindbladChannel(frame.to_lab(pauli_string("i+i" if nu == 2 else "ii+"))[None], rate, (r,))


def family_operators(frame) -> dict[str, np.ndarray]:
    """The lab-frame nine-operator family spanning the steady state, keyed by name."""
    names = ("identity", "a1", "a2", "a3", "b12", "b13", "b23", "c", "d")  # _FAMILY order
    return dict(zip(names, frame.to_lab(_FAMILY)))


# Plain scalar search references.  The package finds roots by Chandrupatla's
# method and maxima by Brent's; the tests replay these textbook loops, one
# evaluation at a time, to check it against an independent search.
INVPHI = (5.0 ** 0.5 - 1.0) / 2.0


def bisect_root(func, a: float, b: float, tol: float) -> float:
    """Bisection: an exact zero ends the search, else halve while b - a > tol."""
    fa, fb = func(a), func(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("root not bracketed")
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = func(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def golden_max(func, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization while b - a > tol; the midpoint and its value."""
    x1, x2 = b - INVPHI * (b - a), a + INVPHI * (b - a)
    f1, f2 = func(x1), func(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVPHI * (b - a)
            f2 = func(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - INVPHI * (b - a)
            f1 = func(x1)
    x = 0.5 * (a + b)
    return x, func(x)


# One-element calls of the package's batched searches, for scalar checks.

def find_root(func, a: float, b: float, tol: float = 1e-10) -> float:
    """Root of func in a sign-change bracket [a, b] by the package's
    Chandrupatla search, one evaluation per step."""
    batch = lambda x, _: np.array([func(v) for v in x.tolist()])
    return float(_chandrupatla(batch, [a], [b], [func(a)], [func(b)], tol)[0])


def golden_section_max(func, a: float, b: float, tol: float = 1e-8) -> tuple[float, float]:
    """Maximizer of a unimodal function on [a, b] and its value, by the
    package's Brent search, one evaluation per step."""
    x, fx = _brent_max(lambda x, _: np.array([func(v) for v in x.tolist()]), [a], [b], tol)
    return float(x[0]), float(fx[0])


@dataclass(frozen=True)
class MinCopResult:
    e1_star: float
    eta_g_min: float
    window: CoolingWindow


def minimize_cop(base: ModelParams, tol: float = 1e-8) -> MinCopResult:
    """Minimize the machine COP over the cooling window of one model by Brent's method."""
    window = cooling_window(base)
    e1_star, negative_cop = _brent_max(lambda x, _: -cop_g(resonant_frame(x, base.e3, base.gamma)),
                                       [window.left], [window.right], tol)
    return MinCopResult(float(e1_star[0]), -float(negative_cop[0]), window)


def per_cell_cells(table: dict[str, np.ndarray], columns) -> dict[str, list[str]]:
    """The named columns of a table as CSV cells formatted cell by cell, floats
    as %.17g and integers as str: the reference for ``cli._cells``."""
    return {name: list(map("%.17g".__mod__ if table[name].dtype.kind == "f" else str,
                           table[name].tolist()))
            for name in columns}


def per_cell_csv(metadata: dict, columns: list[str], rows: list[dict], version: str) -> str:
    """A table as CSV text written cell by cell from row dicts, floats through
    ``format(v, ".17g")``: the reference for the package's column writer."""
    lines = [f"# neqfridge {version}"]
    for key in sorted(metadata):
        lines.append(f"# {key}: {metadata[key]}")
    lines.append(f"# columns: {','.join(columns)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format(row[col], ".17g") if isinstance(row[col], float)
                              else str(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


# Closed-form references that only the tests read: the cooling condition,
# the endpoint-COP identity and the high-temperature saturation study.

def cooling_condition(e1: float, e3: float, gamma: float) -> bool:
    """Whether heating the engine bath can lower the virtual temperature.

    Requires 2 gamma^2 < E3 * sqrt(E1^2 - 4 gamma^2); equivalently the COP
    denominator is positive.
    """
    return 2.0 * gamma * gamma < e3 * resonant_frame(e1, e3, gamma).delta_e


def max_cop_identity(frame, pops, t1: float) -> float:
    """COP at a cooling-window endpoint from dressed inverse temperatures.

    Valid on the surface T1 = Tv, where it coincides with ``cop_g``.
    Derived from the dressed-current identities; the beta~3 term enters with
    a plus sign (the version with a minus sign fails the identity for any
    theta > 0, see the regression test).
    """
    b1 = 1.0 / t1
    bt2, bt3 = pops.btilde2, pops.btilde3
    denominator = (
        b1 * np.cos(frame.theta) - bt2 * frame.cos_half_sq + bt3 * frame.sin_half_sq
    )
    return (bt2 - bt3) / denominator


def high_temperature_saturation(
    x_values: tuple[float, ...] = (0.0, 0.05, 0.1),
    kappas: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0),
) -> dict[str, np.ndarray]:
    """Approach of the max-power COP to its upper bound as temperatures grow.

    The reference refrigerator at gamma = x E3, with all three bath
    temperatures scaled by kappa, which leaves the Carnot COP fixed; the
    relative gap to the bound should shrink toward zero.
    """
    ref = REFERENCE
    eta_c = cop_carnot(ref.t1, ref.t2, ref.t3)
    x, kappa = np.array([(x, kappa) for x in x_values for kappa in kappas]).T
    models = replace(ref, e1=np.fmax(1.0, 2.5 * x * ref.e3), gamma=x * ref.e3,
                     t1=ref.t1 * kappa, t2=ref.t2 * kappa, t3=ref.t3 * kappa)
    results = maximize_cooling_powers(models)
    e1_star, eta_star = np.array([(r.e1_star, r.eta_g_star) for r in results]).T
    bound = eta_star_max(eta_c, x)
    return {
        **replace(models, e1=e1_star).as_batch().as_dict(),
        "gamma_over_e3": x,
        "kappa": kappa,
        "eta_star": eta_star,
        "eta_star_bound": bound,
        "rel_gap": (bound - eta_star) / bound,
        "e1_over_t1": e1_star / models.t1,
    }
