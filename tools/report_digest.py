"""Hash the results of the benchmark's rounds, to show which report bytes moved.

Builds, from ``perfbench/workloads.py`` (read as it is, unchanged), the
``probes`` rounds at seeds 1 and 2, the ``grid`` round at seed 1 and the
``cli_commands`` at seeds 1-3, runs them in-process and prints two digests
per op kind and per command.  After the ``cli_commands`` of a seed it also
runs ``sqdb --scenario <spec> --theta-unitary <phases>`` for each of their
slots, with diagonal phases drawn from ``THETA_SEED`` and written next to
the slot's files: no benchmark command builds a reversing operation from a
unitary.  Then it runs ``convergence`` on each slot's two generators,
written as files, paired through the product coupling: no benchmark command
reaches the vacuous branch.  Last, once and not per seed, since their
files are built from fixed specs, it runs six more families.  It runs
``compose`` and ``check-orthogonal`` on a skewed grid coupling and its
flip: no benchmark composition lies near the orthogonality cut.  It runs
``check-orthogonal`` on a grid coupling that keeps pairs across two blocks
of unequal weight, composed with itself: no benchmark composition weighs
its middle state unevenly on a kept pair, where the cross-Gram norm differs
from the residual.  And it runs ``scenario run`` on one spec per layout
of ``MULTI_CYCLE_LAYOUTS``, whose first coupling block spans several
cycles: the grid round reaches such blocks only at n = 7.  And it runs
``validate`` on a coupling with a negative eigenvalue, on a non-Hermitian
kappa and on a channel whose Choi matrix is not PSD, and
``coupling-from-channel`` on that channel: no benchmark command reaches a
rejection of the PSD check.  And it runs ``ergodic`` on three channels (the
identity, a dephasing channel and e^L of a grid generator): no benchmark
command takes the fixed points of a channel.  And it runs
``check-balance --sampled-times`` and ``convergence`` on the generators of a
one-cycle spec conjugated by a unitary, through the product coupling: each
is one dense block, and no benchmark command exponentiates such a block.
Run from the root of a checkout:

    python tools/report_digest.py [--src DIR]

``--src`` names the source tree whose ``balance_lab`` is hashed (default:
this checkout's ``src/``); the rounds and commands are always built from
this checkout's ``perfbench/workloads.py``.  So one copy of the tool hashes
another tree, such as a parent commit unpacked by ``git archive``, and the
two outputs diff line for line.

An op result is hashed by value: a float by ``float.hex``, an array by its
dtype, shape and bytes, a dataclass by its fields in order, and lists,
tuples and dicts entry by entry.  A command is run through ``cli.main``;
its exit code, stdout, stderr and every file it writes are hashed, with the
work directory masked, so two checkouts give the same digests exactly when
their reports have the same bytes.  Diff the output of two checkouts: a line
that differs names the op kind or the command whose result moved.

Each line prints a second digest over the non-float leaves alone: the bools,
ints, strings and structure, with every float and complex value (and every
array of them) reduced to its type tag.  A command's stdout, stderr and
files are parsed as JSON for it where they parse, so a float printed in a
report counts as a float.  A line whose first digest differs and whose
second does not is one whose verdicts are identical and whose floats moved.

The tool runs BLAS on one thread: it sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before numpy is imported,
whatever they were.  The rounding of a product depends on how many threads
split it, so without this 32 of 184 lines differed between one and two
threads on unchanged code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# before numpy loads its BLAS, which reads them once (see the docstring)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBES_SEEDS, GRID_SEEDS, CLI_SEEDS = (1, 2), (1,), (1, 2, 3)
THETA_SEED = 21
MULTI_CYCLE_SEED = 22
ROTATED_SEED = 23
# (cycles, partition), as in tests/test_lindblad.py: n = 12, 16 and 24
MULTI_CYCLE_LAYOUTS = (
    ((3, 4, 5), ((0, 2), (1,))),
    ((4, 3, 5, 4), ((1, 3), (0, 2))),
    ((6, 6, 6, 6), ((0, 1, 2), (3,))),
)
WORK = "<work>"


def _feed(h, x, floats: bool = True) -> None:
    """Feed the value ``x`` to the hash ``h``, tagged by its type.  With
    ``floats`` False a float or complex leaf, or an array of them, feeds
    its tag alone (an array its dtype and shape), so that the hash reads
    the bools, ints, strings and structure only."""
    if isinstance(x, (bool, np.bool_)):
        h.update(b"b1" if x else b"b0")
    elif isinstance(x, (int, np.integer)):
        h.update(b"i%d;" % int(x))
    elif isinstance(x, (float, np.floating)):
        h.update(b"f" + (float(x).hex().encode() + b";" if floats else b""))
    elif isinstance(x, (complex, np.complexfloating)):
        h.update(b"c" + (x.real.hex().encode() + b"," + x.imag.hex().encode() + b";" if floats else b""))
    elif x is None:
        h.update(b"n")
    elif isinstance(x, str):
        h.update(b"s%d:" % len(x) + x.encode())
    elif isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape}:".encode())
        if floats or x.dtype.kind not in "fc":
            h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(f"d{type(x).__name__}(".encode())
        for f in dataclasses.fields(x):
            h.update(f.name.encode() + b"=")
            _feed(h, getattr(x, f.name), floats)
        h.update(b")")
    elif isinstance(x, (list, tuple)):
        h.update(b"l%d[" % len(x))
        for v in x:
            _feed(h, v, floats)
        h.update(b"]")
    elif isinstance(x, dict):
        h.update(b"m%d{" % len(x))
        for k, v in x.items():
            _feed(h, k, floats)
            _feed(h, v, floats)
        h.update(b"}")
    else:
        raise TypeError(f"cannot hash {type(x)!r}")


class _Digests:
    """The two digests of one line: over every leaf, and over the non-float
    leaves alone (:func:`_feed`)."""

    def __init__(self):
        self.all, self.verdicts = hashlib.sha256(), hashlib.sha256()

    def feed(self, x, text: bool = False) -> None:
        """Feed ``x`` to both; a ``text`` that parses as JSON feeds its
        parsed value to the second, so that a float printed in a report
        moves only the first."""
        _feed(self.all, x)
        if text:
            with contextlib.suppress(ValueError):
                x = json.loads(x)
        _feed(self.verdicts, x, floats=False)

    def hexdigest(self) -> str:
        return f"{self.all.hexdigest()[:16]} {self.verdicts.hexdigest()[:16]}"


def round_digests(workloads, name: str, seed: int) -> dict[str, str]:
    """The digests of each op kind of a round, over its ops' results in
    order."""
    hashes = {}
    for op in workloads.build_round(name, seed, "").ops:
        hashes.setdefault(op.kind, _Digests()).feed(op.run())
    return {f"{name}/seed{seed} {kind}": h.hexdigest() for kind, h in hashes.items()}


def _files(workdir: str) -> dict[str, bytes]:
    return {str(p): p.read_bytes() for p in Path(workdir).rglob("*") if p.is_file()}


def theta_commands(workloads, workdir: str) -> list:
    """``sqdb --scenario <spec> --theta-unitary <u>`` for each slot of
    ``cli_commands`` written to ``workdir``, with u = diag(exp(i phi)) and
    phi drawn from ``THETA_SEED``; the file of u is written here."""
    rng = np.random.default_rng(THETA_SEED)
    commands = []
    for n, *_ in workloads.CLI_SLOTS:
        d = os.path.join(workdir, f"n{n}")
        u = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, n)))
        theta = os.path.join(d, "theta.json")
        with open(theta, "w", encoding="utf-8") as fh:
            json.dump(workloads.bl.matrix_to_json(u), fh)
        argv = ["sqdb", "--scenario", os.path.join(d, "spec.json"), "--theta-unitary", theta]
        commands.append(("sqdb-theta", argv, None))
    return commands


def product_commands(workloads, workdir: str) -> list:
    """``convergence --dynamics-a <a> --dynamics-b <b> --coupling <product>``
    for each slot of ``cli_commands`` written to ``workdir``: the generators
    of the slot's scenario and its product coupling, whose files are written
    here."""
    bl = workloads.bl
    commands = []
    for n, *_ in workloads.CLI_SLOTS:
        d = os.path.join(workdir, f"n{n}")
        with open(os.path.join(d, "spec.json"), encoding="utf-8") as fh:
            triple = bl.lindblad.scenario_build(bl.lindblad.scenario_from_json(json.load(fh)))
        s = triple.coupling.state_a
        files = {"product.json": bl.couplings.product_coupling(s, s).to_json()}
        for x, system in (("a", triple.system_a), ("b", triple.system_b)):
            gen = system.dynamics
            files[f"gen_{x}.json"] = {"kraus": [bl.matrix_to_json(v) for v in gen.jumps],
                                      "hamiltonian": bl.matrix_to_json(gen.hamiltonian)}
        for name, obj in files.items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        f = lambda name: os.path.join(d, name)  # noqa: E731
        argv = ["convergence", "--dynamics-a", f("gen_a.json"), "--dynamics-b", f("gen_b.json"),
                "--coupling", f("product.json"), "--times", *map(str, workloads.CONVERGENCE_TIMES)]
        commands.append(("convergence-product", argv, None))
    return commands


def skewed_commands(workloads, workdir: str) -> list:
    """``compose`` and ``check-orthogonal`` on the coupling of
    ``standard_grid()[12]`` at block_probs (3e-9, 1 - 3e-9) and its flip,
    whose files are written to ``workdir``: both relative residuals of the
    composition are 1.3e-8, above tol but below the Cauchy-Schwarz bound's
    cut, so the two orthogonality methods part if they are cut at two
    scales."""
    bl = workloads.bl
    spec = dataclasses.replace(bl.lindblad.standard_grid()[12], block_probs=(3e-9, 1 - 3e-9))
    w = bl.lindblad.scenario_coupling(spec)
    paths = []
    for name, x in (("skewed_w.json", w), ("skewed_flip.json", bl.couplings.flip_coupling(w))):
        paths.append(os.path.join(workdir, name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(x.to_json(), fh)
    return [("compose-skewed", ["compose", *paths], None),
            ("check-orthogonal-skewed", ["check-orthogonal", *paths], None)]


def nontracial_commands(workloads, workdir: str) -> list:
    """``check-orthogonal`` on the coupling of ``standard_grid()[54]``, one
    entangled block over both cycles, at block_probs (3e-2, 1 - 3e-2),
    composed with itself; its file is written to ``workdir``.  The kept
    pairs across the two cycles join states of weights 1e-2 and 0.2425, so
    the cross-Gram norm (1.26) is not the residual (0.97)."""
    bl = workloads.bl
    spec = dataclasses.replace(bl.lindblad.standard_grid()[54], block_probs=(3e-2, 1 - 3e-2))
    path = os.path.join(workdir, "nontracial_w.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bl.lindblad.scenario_coupling(spec).to_json(), fh)
    return [("check-orthogonal-nontracial", ["check-orthogonal", path, path], None)]


def multi_cycle_commands(workloads, workdir: str) -> list:
    """``scenario run`` on one spec per layout of ``MULTI_CYCLE_LAYOUTS``,
    whose files are written to ``workdir``.  Layout i has first block type
    ``VALID_BLOCK_TYPES[i]`` and second ``VALID_BLOCK_TYPES[i + 1]``; its
    parameters are ``workloads._balanced_spec``'s, drawn from
    ``MULTI_CYCLE_SEED`` with each cycle typed as its block, so an
    entangled block over several cycles has g - h constant per cycle
    only."""
    lindblad = workloads.bl.lindblad
    types = lindblad.VALID_BLOCK_TYPES
    rng = np.random.default_rng(MULTI_CYCLE_SEED)
    commands = []
    for i, (cycles, partition) in enumerate(MULTI_CYCLE_LAYOUTS):
        block_types = (types[i], types[(i + 1) % len(types)])
        per_cycle = [block_types[b] for c in range(len(cycles))
                     for b, blk in enumerate(partition) if c in blk]
        spec = dataclasses.replace(workloads._balanced_spec(rng, cycles, per_cycle),
                                   partition=partition, block_types=block_types)
        path = os.path.join(workdir, f"multi{sum(cycles)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec.to_json(), fh)
        commands.append(("scenario-run-multi", ["scenario", "run", path], None))
    return commands


def psd_rejection_commands(workloads, workdir: str) -> list:
    """``validate`` and ``coupling-from-channel`` on inputs that the PSD
    check rejects, built from the coupling w of ``standard_grid()[12]`` and
    written to ``workdir``: kappa + 0.5 (X + X*) with X = E_03 (x) E_03,
    which has zero marginals and a negative eigenvalue; kappa + 1e-3 i
    (X + X*), which is not Hermitian; and the channel T o E_w, with T the
    transposition, which is unital and preserves the state but is not
    completely positive, since w is entangled on its first block."""
    bl = workloads.bl
    w = bl.lindblad.scenario_coupling(bl.lindblad.standard_grid()[12])
    n, m = w.dims
    x = np.kron(bl.kernel.matrix_unit(n, 0, 3), bl.kernel.matrix_unit(m, 0, 3))
    e = bl.couplings.extract_channel(w)
    i, j = np.divmod(np.arange(n * n), n)
    t = np.zeros((n * n, n * n))
    t[j + n * i, i + n * j] = 1.0
    channel = {"dim_in": e.dim_in, "dim_out": e.dim_out,
               "superoperator": bl.matrix_to_json(t @ e.superoperator)}
    files = {
        "negative_w.json": dataclasses.replace(w, kappa=w.kappa + 0.5 * (x + x.T)).to_json(),
        "skew_w.json": dataclasses.replace(w, kappa=w.kappa + 1e-3j * (x + x.T)).to_json(),
        "transposed_e.json": channel,
        "state_a.json": w.state_a.to_json(),
        "state_b.json": w.state_b.to_json(),
    }
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    for name, obj in files.items():
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return [("validate-negative", ["validate", path("negative_w.json")], None),
            ("validate-non-hermitian", ["validate", path("skew_w.json")], None),
            ("validate-not-cp", ["validate", path("transposed_e.json")], None),
            ("coupling-from-channel-not-cp",
             ["coupling-from-channel", path("transposed_e.json"), "--state-a", path("state_a.json"),
              "--state-b", path("state_b.json")], None)]


def channel_ergodic_commands(workloads, workdir: str) -> list:
    """``ergodic --dynamics <channel> --state <state>`` on three channels,
    whose files are written to ``workdir``: the identity channel at n = 3,
    where S - 1 = 0; the dephasing channel a -> 0.4 a + 0.6 diag(a) at n = 3,
    on the state (0.2, 0.3, 0.5); and e^L of the generator of
    ``standard_grid()[0]``, on its state, whose fixed space has dimension
    7.  No benchmark command takes the fixed points of a channel, the kernel
    of S - 1, which can hold exact zeros on its diagonal."""
    bl = workloads.bl
    sys_a = bl.lindblad.scenario_build(bl.lindblad.standard_grid()[0]).system_a
    i, j = np.divmod(np.arange(9), 3)
    p = bl.new_faithful_state([0.2, 0.3, 0.5])
    superoperators = {
        "identity": (np.eye(9), p),
        "dephasing": (np.diag(np.where(i == j, 1.0, 0.4)), p),
        "semigroup": (bl.semigroup(sys_a.dynamics, 1.0).superoperator, sys_a.state),
    }
    commands = []
    for name, (s, state) in superoperators.items():
        channel = {"dim_in": state.dim, "dim_out": state.dim, "superoperator": bl.matrix_to_json(s)}
        paths = [os.path.join(workdir, f"{name}_{kind}.json") for kind in ("channel", "state")]
        for path, obj in zip(paths, (channel, state.to_json())):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        argv = ["ergodic", "--dynamics", paths[0], "--state", paths[1]]
        commands.append((f"ergodic-{name}-channel", argv, None))
    return commands


def rotated_commands(workloads, workdir: str) -> list:
    """``check-balance --sampled-times`` and ``convergence`` on the two
    generators of a spec of the first slot of ``CLI_SLOTS`` (one 7-cycle),
    drawn from ``ROTATED_SEED`` as ``workloads._balanced_spec`` draws it and
    conjugated by one unitary drawn after it, paired through the product
    coupling of their state as in :func:`product_commands`; the files are
    written to ``workdir``.  The state of one cycle is maximally mixed, so
    both rotated generators keep it, and each is one dense 49 x 49 block: no
    benchmark command exponentiates a single dense block."""
    bl = workloads.bl
    rng = np.random.default_rng(ROTATED_SEED)
    n, cycles, types, _ = workloads.CLI_SLOTS[0]
    triple = bl.lindblad.scenario_build(workloads._balanced_spec(rng, cycles, types))
    u = workloads._random_unitary(rng, n)
    rotate = lambda v: bl.matrix_to_json(u @ v @ u.conj().T)  # noqa: E731
    s = triple.coupling.state_a
    files = {"rotated_product.json": bl.couplings.product_coupling(s, s).to_json()}
    for x, system in (("a", triple.system_a), ("b", triple.system_b)):
        gen = system.dynamics
        files[f"rotated_gen_{x}.json"] = {"kraus": [rotate(v) for v in gen.jumps],
                                          "hamiltonian": rotate(gen.hamiltonian)}
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    f = lambda name: os.path.join(workdir, name)  # noqa: E731
    inputs = ["--dynamics-a", f("rotated_gen_a.json"), "--dynamics-b", f("rotated_gen_b.json"),
              "--coupling", f("rotated_product.json")]
    sampled = map(str, workloads.SAMPLED_TIMES)
    times = map(str, workloads.CONVERGENCE_TIMES)
    return [("check-balance-rotated", ["check-balance", *inputs, "--sampled-times", *sampled], None),
            ("convergence-rotated", ["convergence", *inputs, "--times", *times], None)]


def command_digests(cli, commands: list, workdir: str, prefix: str) -> dict[str, str]:
    """One digest per command, run in order in ``workdir``: its exit code,
    stdout, stderr and the files it wrote or changed, the work directory
    masked in all of them."""
    out = {}
    mask = lambda b: b.replace(workdir.encode(), WORK.encode())  # noqa: E731
    for i, (name, argv, _) in enumerate(commands):
        before = _files(workdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        h = _Digests()
        h.feed(code)
        h.feed(mask(stdout.getvalue().encode()).decode(), text=True)
        h.feed(mask(stderr.getvalue().encode()).decode(), text=True)
        for path, data in sorted(_files(workdir).items()):
            if before.get(path) != data:
                h.feed(path.replace(workdir, WORK))
                h.feed(mask(data).decode(), text=True)
        out[f"{prefix} {i:02d} {name}"] = h.hexdigest()
    return out


def cli_digests(workloads, seed: int) -> dict[str, str]:
    """:func:`command_digests` of ``cli_commands`` at ``seed``, and of
    :func:`theta_commands` and :func:`product_commands` after them."""
    with tempfile.TemporaryDirectory() as workdir:
        commands, _ = workloads.cli_commands(np.random.default_rng(seed), workdir)
        commands += theta_commands(workloads, workdir) + product_commands(workloads, workdir)
        return command_digests(workloads.bl.cli, commands, workdir, f"cli/seed{seed}")


def fixed_digests(workloads) -> dict[str, str]:
    """:func:`command_digests` of :func:`skewed_commands`,
    :func:`nontracial_commands`, :func:`multi_cycle_commands` and
    :func:`psd_rejection_commands`, :func:`channel_ergodic_commands` and
    :func:`rotated_commands`, whose files do not depend on a seed."""
    with tempfile.TemporaryDirectory() as workdir:
        commands = skewed_commands(workloads, workdir) + nontracial_commands(workloads, workdir)
        commands += multi_cycle_commands(workloads, workdir) + psd_rejection_commands(workloads, workdir)
        commands += channel_ergodic_commands(workloads, workdir)
        commands += rotated_commands(workloads, workdir)
        return command_digests(workloads.bl.cli, commands, workdir, "cli/fixed")


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="Hash the results of the benchmark's rounds.")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="the source tree whose balance_lab is hashed (default: this checkout's src/)")
    return p


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import workloads

    digests = {}
    for seed in PROBES_SEEDS:
        digests.update(round_digests(workloads, "probes", seed))
    for seed in GRID_SEEDS:
        digests.update(round_digests(workloads, "grid", seed))
    for seed in CLI_SEEDS:
        digests.update(cli_digests(workloads, seed))
    digests.update(fixed_digests(workloads))
    for key, value in digests.items():
        print(f"{key:44} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
