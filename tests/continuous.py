"""The continuous catalog flows. The package holds only the flows' field
tensors; the field's value f(x), its integrals, the weights of its
Wronskian relation and the e(3)* bracket live here, where they check that
each field builder makes the flow it names (tests/test_systems.py,
criterion 08)."""

import numpy as np

from kahanmaps.systems import ClebschParams, central_gradient

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def einsum_field(field, x):
    """f(x) = Q(x) + B x + c of one state or a stack x[..., n], as a frozen
    np.einsum expression that shares no kernel with the package."""
    return np.einsum("ijk,...j,...k->...i", field.quad, x, x) + (field.lin @ x[..., None])[..., 0] + field.const


def spectral_params(alpha, beta, omega) -> ClebschParams:
    """General Clebsch parameters of the spectral data (alpha, beta, omega):
    a_i = alpha + beta omega_i, b_i = alpha omega_i - beta omega_j omega_k."""
    a = [alpha + beta * omega[i] for i in range(3)]
    b = [alpha * omega[i] - beta * omega[j] * omega[k] for i, j, k in _CYCLIC]
    return ClebschParams(a=a, b=b)


def invariants(desc) -> dict:
    """name -> conserved quantity of the continuous flow of desc, a function
    of one state. H generates the flow; K1 = p.p and K2 = m.p are the e(3)*
    Casimirs; H1 and H2 are the quadratic pair of the Clebsch family's
    spectral data omega; lagrangeH1 is the Lagrange top's combination."""
    pr = desc.params
    if desc.kind == "planar_family":
        qa, qb, qc = pr.qform
        return {"H": lambda x: (qa * x[0] ** 2 + 2 * qb * x[0] * x[1] + qc * x[1] ** 2) / 2}
    casimirs = {"K1": lambda x: x[3:] @ x[3:], "K2": lambda x: x[:3] @ x[3:]}
    if desc.kind == "lagrange":

        def lagrange_h1(x):
            return x[0] ** 2 + x[1] ** 2 + pr.alpha * x[2] ** 2 + 2 * pr.gamma * x[5]

        return {"H": lambda x: lagrange_h1(x) / 2, "lagrangeH1": lagrange_h1, **casimirs}
    if desc.kind == "kirchhoff":
        a, b = np.array([pr.a1, pr.a1, pr.a3]), np.array([pr.b1, pr.b1, pr.b3])
        omega = b / pr.a1
    else:
        a, b = pr.family[:2]
        # a / beta is the spectral omega shifted by alpha / beta, and a shift
        # by c adds only Casimirs: c K1 to H1, c H1 - c (c + sum omega) K1 to
        # H2. So the general case needs no solve for alpha.
        omega = a / pr.beta if desc.kind == "general_clebsch" else pr.omega
    ojk = np.array([omega[j] * omega[k] for _, j, k in _CYCLIC])
    return {
        "H": lambda x: (a @ x[:3] ** 2 + b @ x[3:] ** 2) / 2,
        "H1": lambda x: x[:3] @ x[:3] + omega @ x[3:] ** 2,
        "H2": lambda x: omega @ x[:3] ** 2 - ojk @ x[3:] ** 2,
        **casimirs,
    }


def wronskian_coeffs(desc) -> tuple:
    """Weights gamma of the continuous relation sum_i gamma_i (mdot_i p_i -
    m_i pdot_i) = 0 of a 6-dim kind."""
    pr = desc.params
    if desc.kind == "kirchhoff":
        return (1.0, 1.0, 2.0 * pr.a3 / pr.a1 - 1.0)
    if desc.kind == "lagrange":
        return (1.0, 1.0, 2.0 * pr.alpha - 1.0)
    return tuple(pr.family[2])


def wronskian_residual(desc, x) -> float:
    """sum_i gamma_i (mdot_i p_i - m_i pdot_i) along the field at x."""
    xdot = einsum_field(desc.field, x)
    gamma = np.array(wronskian_coeffs(desc))
    return float(np.sum(gamma * (xdot[:3] * x[3:] - x[:3] * xdot[3:])))


def bracket(F, G, x) -> float:
    """e(3)* bracket m.(dF_m x dG_m) + p.(dF_m x dG_p - dG_m x dF_p), with
    central-difference gradients."""
    fm, fp = np.split(central_gradient(F, x), 2)
    gm, gp = np.split(central_gradient(G, x), 2)
    m, p = x[:3], x[3:]
    return float(m @ np.cross(fm, gm) + p @ (np.cross(fm, gp) - np.cross(gm, fp)))
