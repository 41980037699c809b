"""uawq: exact models of the universal Askey-Wilson algebra at a root of unity.

The package is organized bottom-up:

* ``errors``: the typed exception hierarchy every module raises;
* ``field``: F_{p^2} arithmetic, roots of unity, square roots, polynomial
  root finding;
* ``linalg``: exact dense matrices over F_{p^2};
* ``algebra``: the defining relations as executable checks on matrix pairs;
* ``parallel``: deterministic, order-preserving fan-out for sweeps;
* ``modules``: the two families of finite quotient modules, their
  weight/marginal machinery and the corner invariant;
* ``table1``: the 24-row parameter action, stored and applied as data;
* ``classify``: feasibility, parameter orbits, irreducibility criteria and
  the independent linear-algebra oracles;
* ``suite``: the named property suite and every verification body;
* ``cli``: the ``uawq`` command-line front end.
"""

from . import errors
from .algebra import PairRep, central_elements_check, derive_C, vee, verify_rep
from .classify import (
    OrbitSet,
    Target,
    burnside_irreducible,
    classify_sample,
    feasible,
    feasible_target,
    intertwiner,
    irr_Vn_criterion,
    irr_W_criterion,
    s4_orbit,
    simeq_closure,
    solve_feasible,
)
from .field import FieldCtx, Fq2, chebyshev_T, ctx_new, is_square, poly_roots, sqrt
from .linalg import FMat
from .modules import (
    NuData,
    Params4,
    Params5,
    L_closed,
    L_recurrence,
    build_Vn,
    build_W,
    check_verma_universal,
    check_W_universal,
    dump_module,
    e_vector,
    is_marginal_weight,
    marginal_matrix_e,
    marginal_test_e,
    marginal_vectors,
    nu_of,
    w_ij,
    weight_spaces,
)

__version__ = "0.1.0"
