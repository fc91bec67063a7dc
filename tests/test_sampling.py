import ast
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import mqcdyn
from mqcdyn.pauli import pauli_components, projector
from mqcdyn.sampling import InitSpec, init_ensemble, inverse_normal_cdf, sobol_2d


def test_sobol_first_points_match_reference():
    # reference: standard unscrambled 2D sequence in Gray-code order
    ref = np.array([[0.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75],
                    [0.375, 0.375], [0.875, 0.875], [0.625, 0.125],
                    [0.125, 0.625]])
    assert np.array_equal(sobol_2d(8, skip=0), ref)
    assert np.array_equal(sobol_2d(1, skip=1)[0], [0.5, 0.5])


def test_sobol_matches_scipy_engine():
    import warnings
    from scipy.stats import qmc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = qmc.Sobol(d=2, scramble=False).random(1024)
    assert np.allclose(sobol_2d(1024, skip=0), ref, atol=1e-15)


def test_sobol_skip_is_a_shift():
    full = sobol_2d(40, skip=0)
    assert np.array_equal(sobol_2d(30, skip=10), full[10:])


def antonov_saleev(n: int, skip: int) -> np.ndarray:
    """The Gray-code recurrence written out: point i is point i - 1 with the
    direction integers of the lowest zero bit of i - 1 XORed in."""
    from mqcdyn.sampling import _DIRECTIONS, _SOBOL_BITS
    state = np.zeros(2, dtype=np.uint64)
    out = []
    for i in range(skip + n):
        if i > 0:
            c = 0
            while (i - 1) >> c & 1:
                c += 1
            state = state ^ _DIRECTIONS[:, c]
        if i >= skip:
            out.append(state.copy())
    return np.array(out) * 0.5 ** _SOBOL_BITS


@pytest.mark.parametrize("n,skip", [(8, 0), (1000, 1), (1000, 1024),
                                    (500, 777), (1, 0), (1, 5), (4096, 3),
                                    (3, 1023)])
def test_sobol_is_bitwise_the_antonov_saleev_recurrence(n, skip):
    got = sobol_2d(n, skip=skip)
    want = antonov_saleev(n, skip)
    assert got.dtype == want.dtype and got.shape == (n, 2)
    assert got.tobytes() == want.tobytes()


def test_init_spec_rejects_a_skip_that_keeps_the_origin():
    with pytest.raises(ValueError, match="sobol_skip must be >= 1"):
        make_spec(sobol_skip=0)


def test_sobol_points_in_open_square_after_skip():
    pts = sobol_2d(4096, skip=1)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)


def star_discrepancy_estimate(pts: np.ndarray) -> float:
    # exact star discrepancy over the grid of point-anchored boxes; an
    # adequate estimator for comparing point sets of the same size
    n = len(pts)
    xs = np.unique(np.concatenate([pts[:, 0], [1.0]]))
    ys = np.unique(np.concatenate([pts[:, 1], [1.0]]))
    worst = 0.0
    for x in xs:
        inside_x = pts[:, 0] < x
        for y in ys:
            count = np.count_nonzero(inside_x & (pts[:, 1] < y))
            worst = max(worst, abs(count / n - x * y))
    return worst


def test_sobol_beats_pseudorandom_discrepancy():
    n = 256
    sob = sobol_2d(n, skip=1)
    rng = np.random.default_rng(12345)
    psr = rng.uniform(size=(n, 2))
    assert star_discrepancy_estimate(sob) < star_discrepancy_estimate(psr)


def test_inverse_normal_cdf():
    assert inverse_normal_cdf(0.5) == 0.0
    u = np.linspace(1e-6, 1 - 1e-6, 1001)
    x = inverse_normal_cdf(u)
    assert np.all(np.diff(x) > 0)            # strictly monotone
    assert np.allclose(ndtr(x), u, atol=1e-9)


def _neighbours(u0: float, k: int = 4) -> np.ndarray:
    """``u0`` and its ``k`` nearest floats on either side."""
    out = [u0]
    for direction in (0.0, 1.0):
        u = u0
        for _ in range(k):
            u = np.nextafter(u, direction)
            out.append(u)
    return np.array(out)


def _ndtri_oracle_inputs() -> dict:
    rng = np.random.default_rng(20240611)
    tail = 10.0 ** rng.uniform(-300.0, -1.0, 100_000)
    e2, e32 = np.exp(-2.0), np.exp(-32.0)
    return {
        "sobol": sobol_2d(2024, skip=1).ravel(),
        "uniform": rng.uniform(size=100_000),
        "tail": tail,
        "tail_complement": 1.0 - tail,
        # the central/tail split at y = exp(-2) on either side, and the
        # split of the two tails at x = 8, i.e. y = exp(-32)
        "branch_points": np.concatenate([
            _neighbours(u0) for u0 in (e2, 1.0 - e2, e32, 1.0 - e32)]),
    }


@pytest.mark.parametrize("name", sorted(_ndtri_oracle_inputs()))
def test_inverse_normal_cdf_is_bitwise_scipy_ndtri(name):
    from scipy.special import ndtri
    u = _ndtri_oracle_inputs()[name]
    ours, ref = inverse_normal_cdf(u), ndtri(u)
    assert ours.dtype == np.float64 and ours.shape == u.shape
    differ = np.flatnonzero(ours.view(np.int64) != ref.view(np.int64))
    assert differ.size == 0, (differ.size, u[differ[:5]])


def test_inverse_normal_cdf_keeps_nan_payloads_as_ndtri_does():
    # Cephes carries a nan through its lower tail: it comes out quieted,
    # with its payload and the sign flipped; a signalling nan included
    from scipy.special import ndtri
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000123, 0xFFF80000DEADBEEF,
                     0x7FF0000000000001, 0xFFF7FFFFFFFFFFFF], dtype=np.uint64)
    u = np.concatenate([bits.view(float), [0.3, 1e-20, 0.999]])
    ours = inverse_normal_cdf(u)
    expected = (bits | np.uint64(1 << 51)) ^ np.uint64(1 << 63)
    assert np.array_equal(ours.view(np.uint64)[:6], expected)
    assert np.array_equal(ours.view(np.uint64), ndtri(u).view(np.uint64))


def test_inverse_normal_cdf_edges_and_shapes():
    x = inverse_normal_cdf([0.0, 1.0, -0.1, 1.1, np.nan])
    assert x[0] == -np.inf and x[1] == np.inf
    assert np.all(np.isnan(x[2:]))
    for u in (0.3, np.float64(0.3), np.array(0.3), 1):
        assert type(inverse_normal_cdf(u)) is np.float64
    u = np.linspace(0.05, 0.95, 12).reshape(3, 4).T
    assert inverse_normal_cdf(u).shape == (4, 3)
    assert np.array_equal(inverse_normal_cdf(u),
                          inverse_normal_cdf(u.ravel()).reshape(4, 3))


def test_importing_the_package_does_not_import_scipy():
    code = ("import sys, mqcdyn, mqcdyn.runner, mqcdyn.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


#: The roots of `unreached_definitions`: top-level names of `src/mqcdyn`
#: that stay although no run calls them, each with its reason.
KEPT_UNREACHED = {
    "cli.main": "the `mqcdyn` console script, which calls `runner.run`",
    "dynamics.energy": "traced by perfbench (`spans.TRACED`)",
    "_heap.FREED_MEMORY_KEPT": "read by a `skipif` of `tests/test_dynamics.py`",
    "ensemble.validate": "the state check, kept to become a run-time check",
    "backreaction.koopmon_pairs_factorized_2dof": "2-DOF API (criterion 7)",
    "backreaction.koopmon_2dof_coupling": "2-DOF API (criterion 7)",
    "backreaction.bohmion_pairs_factorized_2dof": "2-DOF API (criterion 7)",
    "backreaction.bohmion_2dof_coupling": "2-DOF API (criterion 7)",
    "backreaction.constant_matrix_factor": "2-DOF API (criterion 7)",
    "backreaction.zero_scalar_factor": "2-DOF API (criterion 7)",
}


def top_level_names(node) -> list:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreached_definitions(src: Path, roots) -> list:
    """Top-level functions, classes and assigned names of the modules in
    ``src`` that no chain of references leads to from ``roots`` or
    module-level code.

    A reference is a load of a top-level name of the module itself or of one
    imported from a sibling (``from . import __version__`` names one of
    ``__init__.py`` unless a sibling module has that name), or an attribute
    of a sibling module (``backreaction.koopmon_terms``).  An import is no
    reference, so the re-exports of ``__init__.py`` reach nothing.  The
    value of a top-level assignment is module-level code, so what it loads
    is reached whether or not the name it binds is.
    """
    edges, live = {}, set(roots)
    for path in src.glob("*.py"):
        mod, tree = path.stem, ast.parse(path.read_text())
        names = {n: f"{mod}.{n}" for node in tree.body
                 for n in top_level_names(node)}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module:
                        names[a.asname or a.name] = f"{node.module}.{a.name}"
                    elif (src / f"{a.name}.py").exists():
                        modules[a.asname or a.name] = a.name
                    else:
                        names[a.asname or a.name] = f"__init__.{a.name}"

        def refs(node):
            out = set()
            for n in ast.walk(node):
                if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        and n.id in names):
                    out.add(names[n.id])
                elif (isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name)
                      and n.value.id in modules):
                    out.add(f"{modules[n.value.id]}.{n.attr}")
            return out

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                edges[f"{mod}.{node.name}"] = refs(node)
            elif not isinstance(node, ast.ImportFrom):
                live |= refs(node)
                edges.update((f"{mod}.{n}", set())
                             for n in top_level_names(node))
    todo = list(live)
    while todo:
        new = edges.get(todo.pop(), set()) - live
        live |= new
        todo += new
    return sorted(set(edges) - live)


def test_every_definition_in_the_package_is_reached_from_a_kept_root():
    assert unreached_definitions(Path(mqcdyn.__file__).parent,
                                 KEPT_UNREACHED) == []
    for name in KEPT_UNREACHED:      # each kept name still exists
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"mqcdyn.{module}"), attr), name


#: Methods and properties of `src/mqcdyn` classes that stay although no
#: code of the package loads them, each with its reason.
KEPT_UNUSED_ATTRIBUTES: dict = {}


def unused_class_attributes(src: Path, kept) -> list:
    """``Class.name`` for every method or property defined in the body of a
    class of the modules in ``src`` (dunders aside; dataclass fields are no
    definitions) whose name is loaded as ``.name`` nowhere in ``src``
    outside its own definition, unless it is in ``kept``."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    loads = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    out = []
    for cls in (n for tree in trees for n in ast.walk(tree)
                if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            name = getattr(node, "name", "")
            if (not isinstance(node, ast.FunctionDef) or name.startswith("__")
                    or f"{cls.name}.{name}" in kept):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(n.attr == name and id(n) not in inside for n in loads):
                out.append(f"{cls.name}.{name}")
    return sorted(out)


def test_every_method_in_the_package_is_loaded_in_the_package():
    src = Path(mqcdyn.__file__).parent
    assert unused_class_attributes(src, KEPT_UNUSED_ATTRIBUTES) == []
    # a kept name that is loaded again, or gone, leaves the list
    assert set(KEPT_UNUSED_ATTRIBUTES) <= set(unused_class_attributes(src, {}))


#: Methods and properties of `src/mqcdyn` classes that share their name with
#: a field of another class there, each with its reason.  A load of the field
#: reads as a load of the method, so `unused_class_attributes` cannot see
#: whether the method itself is used.
KEPT_SHARED_NAMES = {
    "ParticleEnsemble.n": "loaded as `e.n`; `InitSpec.n` is a field",
}


def shared_class_attributes(src: Path, kept) -> list:
    """``Class.name`` for every method or property defined in the body of a
    class of the modules in ``src`` (dunders aside) whose name is also a
    field, an annotated name in a class body, of another class there, unless
    it is in ``kept``."""
    classes = [n for path in sorted(src.glob("*.py"))
               for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.ClassDef)]
    fields = {(cls.name, node.target.id) for cls in classes
              for node in cls.body if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)}
    return sorted(
        f"{cls.name}.{node.name}" for cls in classes for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        and f"{cls.name}.{node.name}" not in kept
        and any(name == node.name and owner != cls.name
                for owner, name in fields))


def test_no_method_in_the_package_shares_a_name_with_a_field():
    src = Path(mqcdyn.__file__).parent
    assert shared_class_attributes(src, KEPT_SHARED_NAMES) == []
    # a kept name whose field or method is gone leaves the list
    assert set(KEPT_SHARED_NAMES) <= set(shared_class_attributes(src, {}))


def make_spec(n=1000, **kw):
    defaults = dict(mu_q=-8.0, mu_p=10.0, sigma_q=np.sqrt(2.0),
                    rho0=projector([1.0, 0.0]), n=n, sobol_skip=1)
    defaults.update(kw)
    return InitSpec(**defaults)


def test_sigma_p_pairing():
    spec = make_spec()
    assert spec.sigma_p * spec.sigma_q == pytest.approx(0.5)


def test_init_ensemble_statistics():
    spec = make_spec(n=1000)
    e = init_ensemble(spec)
    assert e.n == 1000
    assert np.allclose(e.w, 1e-3)
    # QMC sample means sit far inside the 3 sigma/sqrt(N) Monte Carlo band
    assert abs(e.q.mean() - spec.mu_q) < 3 * spec.sigma_q / np.sqrt(spec.n)
    assert abs(e.p.mean() - spec.mu_p) < 3 * spec.sigma_p / np.sqrt(spec.n)
    assert np.std(e.q) == pytest.approx(spec.sigma_q, rel=0.05)
    assert np.std(e.p) == pytest.approx(spec.sigma_p, rel=0.05)


def test_init_ensemble_quantum_sector_uniform():
    spec = make_spec(n=17)
    e = init_ensemble(spec)
    assert np.all(e.rho == spec.rho0)
    assert np.array_equal(e.components,
                          np.tile(pauli_components(spec.rho0)[:, None], 17))


def test_init_ensemble_deterministic():
    a = init_ensemble(make_spec(n=64))
    b = init_ensemble(make_spec(n=64))
    assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)


def test_init_spec_validation():
    with pytest.raises(ValueError):
        make_spec(sigma_q=0.0)
    with pytest.raises(ValueError):
        make_spec(n=0)
    with pytest.raises(ValueError):
        InitSpec(mu_q=0, mu_p=0, sigma_q=1.0, rho0=np.eye(3), n=4)
