"""Independent numpy reference for the benchmark: inputs and checks.

Nothing here imports the library.  A matrix over R, C or H is handled as
component data of shape (rows, cols, ncomp), the layout `kalg.Mat.data`
uses, with quaternion components in the basis (1, i, j, k).  Writing
q = z1 + z2 j with z1 = a + b i and z2 = c + d i, every check goes through
the complex adjoint

    chi(z1 + z2 j) = [[z1, z2], [-conj z2, conj z1]],

an injective *-homomorphism from n x m quaternion matrices into 2n x 2m
complex matrices.  Real and complex data are quaternions with z2 = 0, so
one code path serves all three fields.  Frobenius norms are reported as
|chi(D)|_F / sqrt(2), which equals the component norm in every field.
"""

from __future__ import annotations

import numpy as np

NCOMP = {"real": 1, "complex": 2, "quaternion": 4}


def pairs(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component data (rows, cols, ncomp) -> complex pair (z1, z2)."""
    full = np.zeros(data.shape[:2] + (4,))
    full[:, :, :data.shape[2]] = data
    return full[:, :, 0] + 1j * full[:, :, 1], full[:, :, 2] + 1j * full[:, :, 3]


def chi(data: np.ndarray) -> np.ndarray:
    """Complex adjoint of component data: a 2r x 2c complex matrix."""
    z1, z2 = pairs(data)
    return np.block([[z1, z2], [-z2.conj(), z1.conj()]])


def unchi(c: np.ndarray, ncomp: int) -> np.ndarray:
    """Component data of the quaternion matrix whose complex adjoint is c.

    Reads the top blocks of c; components beyond ncomp are dropped, so the
    caller must only pass matrices that lie in the subfield.
    """
    r, s = c.shape[0] // 2, c.shape[1] // 2
    z1, z2 = c[:r, :s], c[:r, s:]
    full = np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=2)
    return np.ascontiguousarray(full[:, :, :ncomp])


def fro(c: np.ndarray) -> float:
    """Frobenius norm of the quaternion matrix with complex adjoint c."""
    return float(np.linalg.norm(c) / np.sqrt(2.0))


def _polar(c: np.ndarray) -> np.ndarray:
    # unitary polar factor; it stays in the image of chi because that image
    # is a *-algebra closed under (c* c)^(-1/2)
    w, _, vh = np.linalg.svd(c, full_matrices=False)
    return w @ vh


def random_frame(n: int, k: int, ncomp: int, rng: np.random.Generator) -> np.ndarray:
    """Component data of an n x k orthonormal frame: polar factor of a Gaussian."""
    g = rng.standard_normal((n, k, ncomp))
    return unchi(_polar(chi(g)), ncomp)


def conj_transpose(data: np.ndarray) -> np.ndarray:
    out = np.swapaxes(data, 0, 1).copy()
    out[:, :, 1:] *= -1.0
    return out


def hermitian_part(data: np.ndarray) -> np.ndarray:
    return 0.5 * (data + conj_transpose(data))


def skew_part(data: np.ndarray) -> np.ndarray:
    return 0.5 * (data - conj_transpose(data))


def eye_chi(n: int) -> np.ndarray:
    return np.eye(2 * n, dtype=complex)


def unitarity_residual(c: np.ndarray) -> float:
    """|c* c - I| for the complex adjoint c of an n x k matrix."""
    return fro(c.conj().T @ c - eye_chi(c.shape[1] // 2))


def real_trace(c: np.ndarray) -> float:
    """Re tr of the quaternion matrix with complex adjoint c."""
    return float(np.trace(c).real / 2.0)


def cayley(c: np.ndarray) -> np.ndarray:
    """Dense Cayley transform (I - c)(I + c)^{-1} of a square complex adjoint."""
    eye = np.eye(c.shape[0], dtype=complex)
    # (I - c)(I + c)^{-1} = ((I + c)^{-*} (I - c)^*)^*
    return np.linalg.solve((eye + c).conj().T, (eye - c).conj().T).conj().T


def skew_block(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Component data of [[0, X], [-X*, Y]]."""
    nk, k, ncomp = X.shape
    top = np.concatenate([np.zeros((nk, nk, ncomp)), X], axis=1)
    bot = np.concatenate([-conj_transpose(X), Y], axis=1)
    return np.concatenate([top, bot], axis=0)


def stiefel_cayley(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Complex adjoint of the last k columns of c(M) A* with M = [[0, X], [-X*, Y]].

    This is the Stiefel Cayley transform of the tangent (X, Y) under the
    lift A, computed densely with an n x n solve.
    """
    k = X.shape[1]
    full = unchi(cayley(chi(skew_block(X, Y))) @ chi(conj_transpose(A)), 4)
    return chi(full[:, full.shape[1] - k:])


def relative_sigma_min(data: np.ndarray) -> float:
    """sigma_min / sigma_max of a square matrix, through its complex adjoint."""
    s = np.linalg.svd(chi(data), compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0
