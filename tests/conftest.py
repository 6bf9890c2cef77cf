import collections
import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from functools import cache, reduce
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest

from neqfridge import (
    CoolingWindow,
    EnsembleSpec,
    ModelParams,
    cooling_window,
    cop_carnot,
    cop_g,
    eta_star_max,
    maximize_cooling_powers,
    resonant_frame,
)
from neqfridge.experiments import _chandrupatla
from neqfridge.dissipation import FAMILY, _act
from neqfridge.model import PARAM_NAMES, REFERENCE, Hamiltonians
from neqfridge.linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    coordinates,
    pauli_basis,
)

# canonical benchmark point used throughout the suite
P0 = ModelParams(e1=1.0, e3=4.0, gamma=0.3, t1=4.0 / 3.0, t2=2.0, t3=4.0, p=0.01, g=0.01)


def stack(models: list[ModelParams]) -> ModelParams:
    """One-model parameter sets as one validated batch, each field an array over them."""
    return ModelParams(**{name: np.array([getattr(m, name) for m in models]) for name in PARAM_NAMES})


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


def grid_box_points(seed: int, count: int) -> list[ModelParams]:
    """P0 and seeded draws from the box of `validate --grid`, with g = 0 and gamma = E1/2 among them."""
    rng = np.random.default_rng(seed)
    points = [P0]
    for _ in range(count):
        e1 = rng.uniform(0.5, 2.0)
        t1 = rng.uniform(0.5, 2.0)
        t2 = t1 + rng.uniform(0.0, 2.0)
        points.append(ModelParams(
            e1=e1, e3=rng.uniform(2.0, 8.0), gamma=rng.uniform(0.0, 0.49) * e1,
            t1=t1, t2=t2, t3=t2 + rng.uniform(0.0, 4.0),
            p=rng.uniform(0.002, 0.03), g=rng.uniform(0.002, 0.03),
        ))
    points[1] = replace(points[1], g=0.0)
    points[2] = replace(points[2], gamma=0.5 * points[2].e1)
    return points


def weak_dissipation_points(seed: int, count: int, lowest: float = 1e-9) -> list[ModelParams]:
    """Seeded draws from the box of `validate --grid` with p log-uniform on [lowest, 0.1] and
    g = p 10^U(-3, 2), or 0 at one draw in ten; every third draw has T1 = T2 = T3."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        e1, p = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(np.log10(lowest), -1.0)
        t1 = rng.uniform(0.5, 2.0)
        t2 = t1 + rng.uniform(0.0, 2.0)
        t3 = t2 + rng.uniform(0.0, 4.0)
        g = 0.0 if rng.random() < 0.1 else p * 10.0 ** rng.uniform(-3.0, 2.0)
        points.append(ModelParams(e1=e1, e3=rng.uniform(2.0, 8.0), gamma=rng.uniform(0.0, 0.49) * e1,
                                  t1=t1, t2=t1 if i % 3 == 0 else t2, t3=t1 if i % 3 == 0 else t3,
                                  p=p, g=g))
    return points


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


def unitary(frame) -> np.ndarray:
    """The 4x4 rotation mixing the singly-excited machine states; its adjoint
    holds the machine eigenvectors (psi_00, psi_01, psi_10, psi_11) as columns."""
    c, s = math.cos(0.5 * frame.theta), math.sin(0.5 * frame.theta)
    return np.array([[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]], dtype=complex)


def dressing(frame) -> np.ndarray:
    """W = kron(I2, U) on the three qubits: a dressed-frame operator B is W^+ B W in the lab frame."""
    return np.kron(IDENTITY_2, unitary(frame))


def to_lab(frame, op: np.ndarray) -> np.ndarray:
    """W^+ B W for one dressed-frame operator B or a stack (..., 8, 8)."""
    w = dressing(frame)
    return w.conj().T @ op @ w


def to_dressed(frame, op: np.ndarray) -> np.ndarray:
    """W A W^+, the inverse of :func:`to_lab`."""
    w = dressing(frame)
    return w @ op @ w.conj().T


def fridge_tilde_operator(frame, ops: str) -> np.ndarray:
    """4x4 machine operator from dressed single-qubit operators, e.g. 'z+'."""
    bare = np.kron(SINGLE_QUBIT[ops[0]], SINGLE_QUBIT[ops[1]])
    return unitary(frame).conj().T @ bare @ unitary(frame)


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


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, the convention of every 64x64 reference here:
    vec(A @ rho @ B) = kron(B.T, A) @ vec(rho)."""
    return np.asarray(m).reshape(-1, order="F")


def kron_string(labels: str) -> np.ndarray:
    """The product of one ``SINGLE_QUBIT`` operator per label, built one kron at a time."""
    return reduce(np.kron, [SINGLE_QUBIT[label] for label in labels])


def pauli_null_space(liouvillian: np.ndarray) -> np.ndarray:
    """Kernel state from one real SVD of the whole generator in the Pauli-string
    basis, its strings built one kron at a time: the reference for the
    package's block-by-block solve."""
    d = int(round(np.sqrt(liouvillian.shape[0])))
    strings = [kron_string("".join(labels)) for labels in product("ixyz", repeat=d.bit_length() - 1)]
    t = np.array([vec(string) for string in strings]).T
    rotated = t.conj().T @ liouvillian @ t / d
    assert np.max(np.abs(rotated.imag)) <= 1e-12 * np.max(np.abs(rotated.real))
    _, s, vh = np.linalg.svd(rotated.real)
    assert s[-2] >= 1e-9 * s[0]
    rho = sum(v * string for v, string in zip(vh[-1], strings))
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


@cache
def kron_tables() -> np.ndarray:
    """The package's 14 generator terms as 64x64 superoperators from the kron references,
    in its order: -i[B, .] for B = Z1, Z2, Z3 and T, then the unit dissipators of the
    raising jumps (the target reset's, then the dressed machine ladders') and of their adjoints."""
    hams = [*map(kron_string, ("zii", "izi", "iiz")), kron_string("+-+") + kron_string("-+-")]
    raising = [*map(kron_string, ("+ii", "i+i", "iz+", "ii+", "i+z"))]
    jumps = raising + [jump.conj().T for jump in raising]
    tables = np.array([*map(kron_commutator_superop, hams),
                       *(kron_dissipator_superop(jump, 1.0) for jump in jumps)])
    tables.flags.writeable = False  # shared by every caller
    return tables


def full_generator(weights: np.ndarray) -> np.ndarray:
    """The whole 64x64 dressed-frame generator at ``weights``, contracted with
    :func:`kron_tables`; the package itself reads only its family block."""
    return np.tensordot(weights, kron_tables(), 1)


def isometry(basis: np.ndarray) -> np.ndarray:
    """T (d^2, n), the vectorizations of a block's orthonormal basis operators (n, d, d) as columns."""
    return np.array([vec(b) for b in basis]).T


def family_block(superop: np.ndarray) -> np.ndarray:
    """T^+ S T: a 64x64 superoperator on the package's normalised steady family."""
    t = isometry(FAMILY)
    return t.conj().T @ superop @ t


def family_coords(rho: np.ndarray) -> np.ndarray:
    """tr(F_k rho): an operator's (..., 8, 8) coordinates on the normalised family, real for a
    Hermitian one; the package's coordinates of a state."""
    return np.einsum("...ij,nji->...n", rho, FAMILY)


def family_operator(coords: np.ndarray) -> np.ndarray:
    """The 8x8 dressed-frame operator of family coordinates, (..., 9) to (..., 8, 8)."""
    return np.tensordot(coords, FAMILY, 1)


# The charge-0 sector of the machine charge n2 + n3: the reference block that
# the package's family block splits off from exactly at resonance.  Its basis
# is built by Gram-Schmidt over the Pauli strings, and its 24x24 block of the
# generator, free Hamiltonian included, is solved by one real SVD.

# the machine charge n2 + n3 of each basis state |q1 q2 q3>, and the second conserved
# charge n1 + n2; the family and X are neutral under both
MACHINE_CHARGES = tuple(bin(state & 3).count("1") for state in range(8))
PAIR_CHARGES = tuple(bin(state & 6).count("1") for state in range(8))
# the ten operators neutral under both charges: the package's normalised family, then X,
# the normalised quadrature of the tripartite term
NEUTRAL = np.concatenate([FAMILY, (kron_string("+-+") + kron_string("-+-"))[None] / np.sqrt(2.0)])


@cache
def charge_sectors(charges: tuple[int, ...]) -> np.ndarray:
    """The orthonormal Hermitian basis B_j (n0, d, d) of the sector of |a><b| with equal
    ``charges`` q_a = q_b, which a charge-conserving generator maps to itself.  The B_j are
    Gram-Schmidt over the Pauli strings cut to the sector, fewest x and y factors first,
    which keeps coherence noise out of a diagonal kernel."""
    q = np.asarray(charges)
    n_qubits = len(q).bit_length() - 1
    weights = [sum(c in "xy" for c in labels) for labels in product("ixyz", repeat=n_qubits)]
    # each string flattened column by column, with its entries between charges cut
    cut = pauli_basis(n_qubits) * np.equal.outer(q, q)
    basis: list[np.ndarray] = []
    for v in cut.reshape(len(cut), -1, order="F")[np.argsort(weights, kind="stable")]:
        v = v - sum(np.vdot(b, v) * b for b in basis)
        if np.linalg.norm(v) > 1e-9:
            basis.append(v / np.linalg.norm(v))
    out = np.array(basis).reshape(-1, len(q), len(q)).transpose(0, 2, 1)
    out.flags.writeable = False  # shared by every caller
    return out


def sector(superop: np.ndarray) -> np.ndarray:
    """T0^+ S T0: a 64x64 superoperator on the charge-0 sector, in the basis of ``charge_sectors``."""
    t0 = isometry(charge_sectors(MACHINE_CHARGES))
    return t0.conj().T @ superop @ t0


def sector_coords(rho: np.ndarray) -> np.ndarray:
    """tr(B_j rho), or T0^+ vec(rho): an operator's (..., 8, 8) coordinates on the charge-0
    sector, real for a Hermitian one."""
    return np.einsum("...ij,nji->...n", rho, charge_sectors(MACHINE_CHARGES))


def sector_operator(coords: np.ndarray) -> np.ndarray:
    """The 8x8 dressed-frame operator of charge-0 sector coordinates, (..., 24) to (..., 8, 8)."""
    return np.tensordot(coords, charge_sectors(MACHINE_CHARGES), 1)


@cache
def sector_tables_24() -> np.ndarray:
    """The package's 14 generator terms on the charge-0 sector, tr(B_i A_k(B_j)) (14, 24, 24)."""
    basis = charge_sectors(MACHINE_CHARGES)
    tables = np.ascontiguousarray(coordinates(_act(basis), basis).transpose(0, 2, 1))
    tables.flags.writeable = False  # shared by every caller
    return tables


def sector_steady_state(weights: np.ndarray) -> np.ndarray:
    """The unit-trace kernel state (8, 8) of the charge-0 block at ``weights``, the right
    singular vector of the smallest singular value of the whole 24x24 block, free Hamiltonian
    included; no degeneracy rule, as weak dissipation would trip the rule on this block."""
    rho = sector_operator(np.linalg.svd(np.tensordot(weights, sector_tables_24(), 1))[2][-1])
    return rho / np.trace(rho)


def charge_differences(charges=MACHINE_CHARGES) -> np.ndarray:
    """q_a - q_b of the ``charges`` (the machine's by default) at each vec position a + 8 b."""
    return vec(np.subtract.outer(charges, charges))


def charged_blocks() -> list:
    """``np.ix_`` indices of the generator blocks of positive machine charge difference
    q_a - q_b (1, then 2), in vec positions a + 8 b; the block of -c has the same singular values."""
    diff = charge_differences()
    return [np.ix_(*2 * [np.flatnonzero(diff == c)]) for c in (1, 2)]


def between_blocks(charges=MACHINE_CHARGES) -> np.ndarray:
    """The mask of a 64x64 superoperator's entries between different differences of ``charges``."""
    diff = charge_differences(charges)
    return np.subtract.outer(diff, diff) != 0


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


def kron_generator(lab) -> np.ndarray:
    """Lab-frame 64x64 generator of a point's :class:`LabParts`, from the kron references."""
    return kron_commutator_superop(lab.hams.htot) + sum(
        channel_superop(channel) for channel in (lab.d1, lab.d2, lab.d3))


def dressed(superop: np.ndarray, frame) -> np.ndarray:
    """A lab-frame superoperator in the dressed frame: S G S^+ with S =
    kron(conj W, W), the matrix of rho -> W rho W^+, formed explicitly."""
    w = dressing(frame)
    s = np.kron(w.conj(), w)
    return s @ superop @ s.conj().T


# The lab-frame reference of the master equation.  The package writes every
# operator in the dressed frame, the machine eigenbasis; the tests build the
# same physics in the lab frame, with the exchange term in the machine
# Hamiltonian, jumps rotated by the dressing and channels that act one
# weighted jump at a time, and compare the package against it.

@dataclass(frozen=True)
class LindbladChannel:
    """Dissipator of raising jumps L_k, a stack (k, d, d), each paired with its
    lowering L_k+: L_k at weight rate*r_k and L_k+ at rate*(1 - r_k)."""

    raising: np.ndarray
    rate: float
    populations: tuple[float, ...]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return loop_apply(weighted_jumps(self), rho)


def reset_channel(qubit: int, rate: float, population: float, n_qubits: int = 3) -> LindbladChannel:
    """Local thermalizing channel whose fixed point on ``qubit`` is diag(r, 1 - r)."""
    raising = reduce(np.kron, [SIGMA_PLUS if q == qubit else IDENTITY_2 for q in range(1, n_qubits + 1)])
    return LindbladChannel(raising[None], rate, (population,))


# (nu, mu, dressed machine ladder) of the four nonzero machine jumps:
# projecting sigma_mu^+ onto the machine eigenbasis leaves them, with
# prefactors (cos, sin, cos, -sin) of theta/2; nu labels the dressed qubit
# whose gap eps_nu is the transition frequency, mu the bath driving it
JUMP_SPECS = ((2, 2, "+i"), (3, 2, "z+"), (3, 3, "i+"), (2, 3, "+z"))


def jump_operator_set(frame) -> np.ndarray:
    """The four lab-frame raising eigenoperators of the machine baths, (4, 8, 8):
    the dressed ladders of ``JUMP_SPECS`` with prefactors (cos, sin, cos, -sin) of theta/2."""
    c, s = math.cos(0.5 * frame.theta), math.sin(0.5 * frame.theta)
    return np.array([prefactor * tilde_operator(frame, "i", ladder)
                     for prefactor, (_, _, ladder) in zip((c, s, c, -s), JUMP_SPECS)])


def lab_hamiltonians(params, frame) -> Hamiltonians:
    """The lab-frame Hamiltonians: the bare machine with its exchange coupling,
    and the tripartite term on the dressed ladders."""
    z, eye = SIGMA_Z, IDENTITY_2
    h1 = 0.5 * params.e1 * np.kron(z, np.eye(4))
    exchange = np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS)
    hfridge = np.kron(eye, 0.5 * frame.e2 * np.kron(z, eye) + 0.5 * params.e3 * np.kron(eye, z)
                      + params.gamma * exchange)
    hg = params.g * (tilde_operator(frame, "+", "-+") + tilde_operator(frame, "-", "+-"))
    return Hamiltonians(h1=h1, hfridge=hfridge, hg=hg, htot=h1 + hfridge + hg)


@dataclass(frozen=True)
class LabParts:
    """A point's lab-frame Hamiltonians and its target, bath-2 and bath-3 channels."""

    hams: Hamiltonians
    d1: LindbladChannel
    d2: LindbladChannel
    d3: LindbladChannel

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Generator action -i[H, rho] + D1(rho) + D2(rho) + D3(rho)."""
        htot = self.hams.htot
        return (-1j * (htot @ rho - rho @ htot)
                + self.d1.apply(rho) + self.d2.apply(rho) + self.d3.apply(rho))


def lab_parts(parts) -> LabParts:
    """The lab-frame reference of the package's point ``parts``, at its populations."""
    params, frame, pops = parts.params, parts.frame, parts.pops
    jumps = jump_operator_set(frame)
    return LabParts(
        hams=lab_hamiltonians(params, frame),
        d1=reset_channel(1, params.p, pops.r1),
        d2=LindbladChannel(jumps[:2], params.p, (pops.r22, pops.r32)),
        d3=LindbladChannel(jumps[2:], params.p, (pops.r33, pops.r23)),
    )


def lab_heat_currents(parts, rho: np.ndarray) -> dict[str, float]:
    """The trace-route currents of a dressed-frame state ``rho`` at the point
    ``parts``, read in the lab frame from :func:`lab_parts`."""
    lab, frame, pops = lab_parts(parts), parts.frame, parts.pops
    rho = to_lab(frame, rho)
    hams = lab.hams
    q1, q2, q3 = (np.trace(hams.htot @ channel.apply(rho)).real for channel in (lab.d1, lab.d2, lab.d3))
    target = np.diag([pops.r1, 1.0 - pops.r1])
    fridge = np.kron(np.diag([pops.rtilde2, 1.0 - pops.rtilde2]), np.diag([pops.rtilde3, 1.0 - pops.rtilde3]))
    rho0 = np.kron(target, unitary(frame).conj().T @ fridge @ unitary(frame))
    q23 = np.trace(hams.hfridge @ lab.d3.apply(rho0)).real
    dg_rho = -1j * (hams.hg @ rho - rho @ hams.hg)
    qt2g = -np.trace(0.5 * frame.eps2 * tilde_operator(frame, "i", "zi") @ dg_rho).real
    qt3g = -np.trace(0.5 * frame.eps3 * tilde_operator(frame, "i", "iz") @ dg_rho).real
    return {"q1": q1, "q2": q2, "q3": q3, "q23": q23, "q1g": -np.trace(hams.h1 @ dg_rho).real,
            "q2g": q2 + q23, "q3g": q3 - q23, "qt2g": qt2g, "qt3g": qt3g}


def tilde_channel(nu: int, frame, pops, rate: float) -> LindbladChannel:
    """Local reset channel on dressed qubit nu (2 or 3) with its mixed population."""
    r = pops.rtilde2 if nu == 2 else pops.rtilde3
    return LindbladChannel(tilde_operator(frame, "i", "+i" if nu == 2 else "i+")[None], rate, (r,))


def family_operators(frame) -> dict[str, np.ndarray]:
    """The lab-frame normalised nine-operator family spanning the steady state, keyed by name."""
    names = ("identity", "a1", "a2", "a3", "b12", "b13", "b23", "c", "d")  # FAMILY order
    return dict(zip(names, to_lab(frame, FAMILY)))


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


def hot_spec(seed: int) -> EnsembleSpec:
    """A 400-model ensemble with machine baths at hundreds to thousands of units,
    where the populations sit near 1/2 and d's numerator cancels."""
    return EnsembleSpec(n=400, seed=seed, t2_range=(200.0, 2000.0), t3_mult_range=(1.0, 50.0))


def mp_closed_forms(e1, params: ModelParams) -> tuple:
    """f (``log_odds_gap``), Q1^g, d's denominator D and the larger P of the two products
    whose difference is d's numerator, at target gap e1 in mpmath at the working precision,
    from the model's float fields taken exactly."""
    e1 = mpmath.mpf(e1)
    e3, gamma, t1, t2, t3, p, g = (mpmath.mpf(float(getattr(params, name)))
                                   for name in ("e3", "gamma", "t1", "t2", "t3", "p", "g"))
    r = lambda energy, t: 1 / (1 + mpmath.exp(energy / t))
    delta_e = mpmath.sqrt(e1 ** 2 - 4 * gamma ** 2)
    eps3 = e3 + delta_e / 2 - e1 / 2
    eps2 = eps3 + e1
    c2 = (1 + delta_e / e1) / 2  # cos^2(theta/2), as cos theta = delta_e/E1
    rt2 = c2 * r(eps2, t2) + (1 - c2) * r(eps2, t3)
    rt3 = c2 * r(eps3, t3) + (1 - c2) * r(eps3, t2)
    r1 = r(e1, t1)
    q1, qt2, qt3 = 1 - r1, 1 - rt2, 1 - rt3
    omega = r1 * qt2 + q1 * rt2 + rt2 * qt3 + qt2 * rt3 + r1 * rt3 + q1 * qt3
    denominator = 9 * p * p + (14 + 4 * omega) * g * g
    d = 48 * (q1 * rt2 * qt3 - r1 * qt2 * rt3) * p * g / denominator
    return (e1 / t1 - mpmath.log(qt2 * rt3 / (rt2 * qt3)), -g / 4 * d * e1, denominator,
            max(q1 * rt2 * qt3, r1 * qt2 * rt3))


def mp_power_stationary_point(params: ModelParams, guess: float):
    """The root of dQ1^g/dE1 next to ``guess``, from 50-digit closed forms: the root of
    (dQ1^g/dE1)/Q1^g, which is of order one where Q1^g is below the smallest float."""
    with mpmath.workdps(50):
        power = lambda y: mp_closed_forms(y, params)[1]
        return mpmath.findroot(lambda x: mpmath.diff(power, x) / power(x), mpmath.mpf(guess))


def mp_window_edge(params: ModelParams, guess: float):
    """The root of f (``log_odds_gap``), a cooling-window edge, next to ``guess``, from
    50-digit closed forms."""
    with mpmath.workdps(50):
        return mpmath.findroot(lambda x: mp_closed_forms(x, params)[0], mpmath.mpf(guess))


def mp_coefficients(e1, params: ModelParams) -> tuple:
    """The steady state's d and a1 at target gap e1, from 50-digit closed forms:
    d = -4 Q1^g/(g E1) and a1 = 2 r1 - 1 + (g/p)(d/2)."""
    with mpmath.workdps(50):
        e1 = mpmath.mpf(e1)
        d = -4 * mp_closed_forms(e1, params)[1] / (params.g * e1)
        return d, 2 / (1 + mpmath.exp(e1 / params.t1)) - 1 + params.g * d / (2 * params.p)


# One-element calls of the package's batched searches, for scalar checks.

def find_root(func, a: float, b: float) -> float:
    """Root of func in a sign-change bracket [a, b] by the package's
    Chandrupatla search, one evaluation per step."""
    batch = lambda x, _: np.array([func(v) for v in x.tolist()])
    return float(_chandrupatla(batch, [a], [b], [func(a)], [func(b)], [max(abs(a), abs(b))])[0])


@dataclass(frozen=True)
class MinCopResult:
    e1_star: float
    eta_g_min: float
    window: CoolingWindow


def minimize_cop(base: ModelParams, tol: float = 1e-8) -> MinCopResult:
    """Minimize the machine COP over the cooling window of one model by golden section."""
    window = cooling_window(base)
    e1_star, negative_cop = golden_max(lambda x: -cop_g(resonant_frame(x, base.e3, base.gamma)),
                                       window.left, window.right, tol)
    return MinCopResult(float(e1_star), -float(negative_cop), window)


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
