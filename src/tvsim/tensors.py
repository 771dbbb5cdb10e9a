"""Constant 4th-order material tensors on 2x2 symmetric matrices.

A 4th-order tensor T acts on a symmetric matrix A through the double
contraction (T:A)_ij = sum_kl T_ijkl A_kl.  All tensors used here carry the
major and left-minor symmetries T_ijkl = T_klij = T_jikl, so the induced map
is self-adjoint on the 3-dimensional space of symmetric matrices and all
spectral questions reduce to a symmetric 3x3 matrix in the orthonormal basis

    E1 = e1 x e1,  E2 = e2 x e2,  E3 = (e1 x e2 + e2 x e1) / sqrt(2).

Symmetric matrices travel through the rest of the package as component
triples (a11, a22, a12); the helpers here convert between the dense 2x2,
the triple, and the orthonormal-coordinate representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, _number, _numbers, _section

_SQRT2 = np.sqrt(2.0)

#: orthonormal basis of symmetric 2x2 matrices under <A,B> = sum A_ij B_ij
_ONB = np.array([
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0 / _SQRT2], [1.0 / _SQRT2, 0.0]],
])


def mat_inner(a, b):
    """Frobenius inner product of two 2x2 matrices."""
    return float(np.sum(np.asarray(a) * np.asarray(b)))


def triple_to_mat(t):
    """(a11, a22, a12) -> dense symmetric 2x2."""
    a11, a22, a12 = t
    return np.array([[a11, a12], [a12, a22]])


def _isotropic_raw(lam, mu):
    """T_ijkl = mu (d_ik d_jl + d_il d_jk) + lam d_ij d_kl, no validation."""
    eye = np.eye(2)
    t = (mu * (np.einsum("ik,jl->ijkl", eye, eye)
               + np.einsum("il,jk->ijkl", eye, eye))
         + lam * np.einsum("ij,kl->ijkl", eye, eye))
    return t


def isotropic_tensor(lam, mu):
    """Isotropic tensor mapping symmetric A to 2*mu*A + lam*tr(A)*I.

    Requires mu > 0 so that the induced map is coercive for lam >= 0
    (other lam are admitted if a later coercivity check passes).
    """
    if mu <= 0:
        raise ConfigError(f"isotropic tensor needs mu > 0, got mu={mu}")
    return _isotropic_raw(lam, mu)


def has_required_symmetries(t, rtol=1e-12):
    """Check T_ijkl = T_klij = T_jikl up to a relative tolerance."""
    t = np.asarray(t, dtype=float)
    scale = np.max(np.abs(t)) or 1.0
    major = np.max(np.abs(t - np.transpose(t, (2, 3, 0, 1))))
    minor = np.max(np.abs(t - np.transpose(t, (1, 0, 2, 3))))
    return max(major, minor) <= rtol * scale


def contract4(t, a):
    """Double contraction (T:A)_ij = sum_kl T_ijkl A_kl."""
    return np.einsum("ijkl,kl->ij", t, a)


def tensor_to_onb_matrix(t):
    """Matrix of A -> T:A in the orthonormal symmetric basis (3x3, symmetric)."""
    m = np.empty((3, 3))
    for a in range(3):
        ta = contract4(t, _ONB[a])
        for b in range(3):
            m[b, a] = mat_inner(ta, _ONB[b])
    return 0.5 * (m + m.T)


def onb_matrix_to_tensor(m):
    """Inverse of :func:`tensor_to_onb_matrix` (produces a symmetric-map tensor)."""
    return np.einsum("ab,aij,bkl->ijkl", m, _ONB, _ONB)


def component_matrix(t):
    """3x3 matrix giving <T:A, B> = vecB . M . vecA for triples (a11, a22, a12).

    The off-diagonal component carries its multiplicity, so the quadratic
    form in the plain triples matches the Frobenius pairing exactly.
    """
    t = np.asarray(t, dtype=float)
    return np.array([
        [t[0, 0, 0, 0], t[0, 0, 1, 1], 2.0 * t[0, 0, 0, 1]],
        [t[1, 1, 0, 0], t[1, 1, 1, 1], 2.0 * t[1, 1, 0, 1]],
        [2.0 * t[0, 1, 0, 0], 2.0 * t[0, 1, 1, 1], 4.0 * t[0, 1, 0, 1]],
    ])


def coercivity_constant(t):
    """Smallest eigenvalue of the induced self-adjoint map on symmetric matrices.

    Positive iff <T:A, A> >= k |A|^2 holds with k > 0.  The value is returned
    even when it is <= 0; callers decide whether to reject.
    """
    return float(np.linalg.eigvalsh(tensor_to_onb_matrix(t)).min())


def sqrt_tensor(t):
    """Principal square root S of the induced map: S:(S:A) = T:A.

    S is self-adjoint with the same index symmetries, and its coercivity
    constant is the square root of T's.  Rejects non-coercive input.
    """
    m = tensor_to_onb_matrix(t)
    w, v = np.linalg.eigh(m)
    if w.min() <= 0:
        raise ConfigError(
            f"square root requires a coercive tensor, min eigenvalue {w.min():g}")
    s = (v * np.sqrt(w)) @ v.T
    return onb_matrix_to_tensor(s)


@dataclass(frozen=True)
class ElasticityTensors:
    """Viscosity tensor D4, elasticity tensor C4 and thermal coupling matrix B.

    Symmetries and coercivity of D4 and C4 are validated at construction;
    B only needs to be symmetric.  kD and kC are the smallest eigenvalues of
    the induced maps, b_norm the Frobenius norm of B.
    """

    D4: np.ndarray
    C4: np.ndarray
    B: np.ndarray
    kD: float = field(init=False)
    kC: float = field(init=False)
    b_norm: float = field(init=False)

    def __post_init__(self):
        d4 = np.asarray(self.D4, dtype=float)
        c4 = np.asarray(self.C4, dtype=float)
        b = np.asarray(self.B, dtype=float)
        for name, t in (("D", d4), ("C", c4)):
            if t.shape != (2, 2, 2, 2):
                raise ConfigError(f"tensor {name} must have shape (2,2,2,2)")
            if not has_required_symmetries(t):
                raise ConfigError(f"tensor {name} violates the index symmetries")
        if b.shape != (2, 2) or abs(b[0, 1] - b[1, 0]) > 1e-12 * (np.abs(b).max() or 1.0):
            raise ConfigError("coupling matrix B must be symmetric 2x2")
        b = 0.5 * (b + b.T)
        kd = coercivity_constant(d4)
        kc = coercivity_constant(c4)
        if kd <= 0:
            raise ConfigError(f"viscosity tensor is not coercive (k={kd:g})")
        if kc <= 0:
            raise ConfigError(f"elasticity tensor is not coercive (k={kc:g})")
        for name, val in (("D4", d4), ("C4", c4), ("B", b)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "kD", kd)
        object.__setattr__(self, "kC", kc)
        object.__setattr__(self, "b_norm", float(np.sqrt(np.sum(b * b))))

    @property
    def b_triple(self):
        """(b11, b22, b12) components of the coupling matrix."""
        return np.array([self.B[0, 0], self.B[1, 1], self.B[0, 1]])


def _tensor_from_config(node, name):
    path = f"tensors.{name}"
    if isinstance(node, dict) and "isotropic" in node:
        iso = _section(_section(node, path, ("isotropic",))["isotropic"],
                       f"{path}.isotropic", ("lambda", "mu"))
        try:
            lam = _number(iso["lambda"], f"{path}.isotropic.lambda")
            mu = _number(iso["mu"], f"{path}.isotropic.mu")
        except KeyError as exc:
            raise ConfigError(f"tensor {name}: isotropic form needs lambda and mu") from exc
        return isotropic_tensor(lam, mu)
    arr = np.array(_numbers(node, path))
    if arr.size != 16:
        raise ConfigError(
            f"tensor {name}: expected isotropic spec or 16 row-major entries, got {arr.size}")
    t = arr.reshape(2, 2, 2, 2)
    if not has_required_symmetries(t):
        raise ConfigError(f"tensor {name}: explicit entries violate the index symmetries")
    return t


def _coupling_from_config(node):
    if isinstance(node, dict) and "scale_identity" in node:
        scale = _section(node, "tensors.B", ("scale_identity",))["scale_identity"]
        return _number(scale, "tensors.B.scale_identity") * np.eye(2)
    arr = np.array(_numbers(node, "tensors.B"))
    if arr.size == 3:
        return triple_to_mat(arr)
    if arr.size == 4:
        return arr.reshape(2, 2)
    raise ConfigError("coupling matrix B: expected {'scale_identity': s}, "
                      "[b11, b22, b12] or a 2x2 array")


def tensors_from_config(cfg):
    """Build validated ElasticityTensors from a config mapping (tensors).

    Accepted forms per tensor: {"isotropic": {"lambda": l, "mu": m}} or an
    explicit 16-entry row-major array; B as {"scale_identity": s},
    [b11, b22, b12] or a full 2x2 array.  No form takes another key.
    """
    cfg = _section(cfg, "tensors", ("D", "C", "B"))
    try:
        d_node = cfg["D"]
        c_node = cfg["C"]
        b_node = cfg["B"]
    except KeyError as exc:
        raise ConfigError("tensors config needs keys D, C and B") from exc
    return ElasticityTensors(
        D4=_tensor_from_config(d_node, "D"),
        C4=_tensor_from_config(c_node, "C"),
        B=_coupling_from_config(b_node),
    )
