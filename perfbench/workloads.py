"""The benchmark workloads: seeded inputs, one op each, and the op's output checks.

An op returns the list of checks it failed; an empty list is a pass.  Each
input is made from (workload, seed, op index) just before its op and
outside the op's timer.  The `api` an op receives is a `layers.Api`, so an
op reaches tadic only through public names and the CLI.
"""

import json
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import samplers

K_VDP = 14
K_MAHLER = 12
K_CARLITZ = 9
K_CLI = 12


class InputCheckFailed(Exception):
    """An expectation fixed at generation time disagrees with its oracle."""


def expect(fails, ok, what):
    if not ok:
        fails.append(what)


def _below(verdicts, k):
    """The verdicts at levels 1..k-1, where every criterion is decided."""
    return verdicts.levels[: k - 1]


# --- vdp-certify -----------------------------------------------------------

def vdp_input(api, rng, index, workdir):
    steered = index % 2 == 0
    vdp = samplers.ergodic_vdp(rng, K_VDP)
    z2 = samplers.ergodic_z2(rng, K_VDP)
    if not steered:
        vdp = samplers.corrupt_vdp(rng, vdp)
        z2 = samplers.corrupt_z2(rng, z2)
    return SimpleNamespace(
        steered=steered,
        cycle_seed=rng.getrandbits(32),
        vdp=api.vanderput.VdpCoefficients(K_VDP, vdp),
        z2=api.z2compare.Z2VdpCoefficients(K_VDP, z2),
        mahler=api.z2compare.MahlerCoefficients(K_MAHLER, samplers.mahler(rng, K_MAHLER, steered)),
    )


def vdp_certify(api, inp):
    """Certify by coefficients and confirm by cycle walks, in both rings."""
    cg, dy, vp, z2 = api.cyclegen, api.dynamics, api.vanderput, api.z2compare
    k = K_VDP
    fails = []

    # (a) a generated single cycle is certified and confirmed at every level
    _, t = cg.gen_cycle(cg.random_data(inp.cycle_seed, k - 1))
    c = vp.to_vdp(t)
    expect(fails, vp.check_lipschitz_vdp(c), "a: generated cycle is not 1-Lipschitz")
    expect(fails, vp.check_mp_vdp(c).overall is True, "a: generated cycle is not measure-preserving")
    certified = vp.check_ergodic_vdp(c).levels == (True,) * (k - 1) + (None,)
    expect(fails, certified, "a: generated cycle not certified ergodic")
    expect(fails, vp.vdp_table(c).table == t.table, "a: vdp_table does not reproduce the table")
    expect(fails, dy.is_compatible(t).overall is True, "a: table not compatible")
    expect(fails, dy.is_bijective_mod(t).overall is True, "a: table not bijective")
    expect(fails, dy.is_transitive_mod(t).overall is True, "a: table not transitive")

    # (b) F2T coefficient criteria against the oracles on the synthesized table
    t = vp.vdp_table(inp.vdp)
    mp = vp.check_mp_vdp(inp.vdp)
    erg = vp.check_ergodic_vdp(inp.vdp)
    expect(fails, _below(mp, k) == _below(dy.is_bijective_mod(t), k), "b: check_mp_vdp != bijectivity")
    expect(fails, _below(erg, k) == _below(dy.is_transitive_mod(t), k), "b: check_ergodic_vdp != transitivity")
    expect(fails, erg.all_determined_true() or not inp.steered, "b: steered set not certified")

    # (c) the same in Z2, with the expansion round trip
    t = z2.vdp_table_z2(inp.z2)
    expect(fails, z2.to_vdp_z2(t).B == inp.z2.B, "c: to_vdp_z2 does not invert vdp_table_z2")
    bijective = dy.is_bijective_mod(t).overall is True
    expect(fails, z2.check_mp_z2(inp.z2) == bijective, "c: check_mp_z2 != bijectivity")
    erg = z2.check_ergodic_z2(inp.z2)
    expect(fails, _below(erg, k) == _below(z2.is_transitive_mod_z2(t), k), "c: check_ergodic_z2 != transitivity")
    expect(fails, erg.all_determined_true() or not inp.steered, "c: steered set not certified")

    # (d) the sparse Mahler criterion against compatibility plus transitivity
    t = z2.mahler_table(inp.mahler)
    compatible = dy.is_compatible(t).overall is True
    transitive = z2.is_transitive_mod_z2(t).overall is True
    criterion = z2.check_ergodic_mahler_z2(inp.mahler)
    expect(fails, criterion == (compatible and transitive), "d: Mahler criterion != oracle")
    return fails


# --- carlitz-dense ---------------------------------------------------------

def carlitz_input(api, rng, index, workdir):
    steered = index % 2 == 0
    coeffs = api.carlitz.CarlitzCoefficients(K_CARLITZ, samplers.dense_carlitz(rng, K_CARLITZ, steered))
    return SimpleNamespace(steered=steered, coeffs=coeffs)


def carlitz_dense(api, inp):
    """Synthesize a dense Carlitz set, expand it back, and check both criteria."""
    cz, dy, vp = api.carlitz, api.dynamics, api.vanderput
    c = inp.coeffs
    k = c.precision
    fails = []
    t = cz.carlitz_table(c)
    expect(fails, cz.to_carlitz(t).a == c.a, "to_carlitz does not invert carlitz_table")
    expect(fails, cz.check_lipschitz_carlitz(c), "set built 1-Lipschitz reported otherwise")
    erg = cz.check_ergodic_carlitz(c)
    expect(fails, _below(erg, k) == _below(vp.check_ergodic_vdp(vp.to_vdp(t)), k), "Carlitz and vdp criteria disagree")
    expect(fails, _below(erg, k) == _below(dy.is_transitive_mod(t), k), "check_ergodic_carlitz != transitivity")
    expect(fails, erg.all_determined_true() or not inp.steered, "steered set not certified")
    return fails


# --- cli-batch -------------------------------------------------------------

def cli_input(api, rng, index, workdir):
    """Write the job's coefficient files; fix the Z2 exit codes from the in-process criteria.

    Each of those criteria is first checked against its brute-force oracle,
    so a wrong expectation cannot hide a wrong CLI verdict.
    """
    dy, z2 = api.dynamics, api.z2compare
    k = K_CLI
    steered = index % 2 == 0
    B = samplers.ergodic_z2(rng, k)
    zc = z2.Z2VdpCoefficients(k, B if steered else samplers.corrupt_z2(rng, B))
    erg = z2.check_ergodic_z2(zc)
    if _below(erg, k) != _below(z2.is_transitive_mod_z2(z2.vdp_table_z2(zc)), k):
        raise InputCheckFailed("check_ergodic_z2 disagrees with transitivity")
    mc = z2.MahlerCoefficients(k, samplers.mahler(rng, k, steered))
    mt = z2.mahler_table(mc)
    mahler_ok = z2.check_ergodic_mahler_z2(mc)
    if mahler_ok != (dy.is_compatible(mt).overall is True and z2.is_transitive_mod_z2(mt).overall is True):
        raise InputCheckFailed("check_ergodic_mahler_z2 disagrees with its oracle")
    names = ("carlitz", "z2", "mahler", "table", "vdp", "conv")
    files = SimpleNamespace(**{name: workdir / (name + ".json") for name in names})
    carlitz = api.carlitz.CarlitzCoefficients(k, samplers.perturbed_reference(rng, k))
    files.carlitz.write_text(json.dumps(carlitz.json_dict()))
    files.z2.write_text(json.dumps(zc.json_dict()))
    files.mahler.write_text(json.dumps(mc.json_dict()))
    return SimpleNamespace(
        files=files,
        cycle_seed=rng.getrandbits(32),
        x="0x%x" % rng.getrandbits(k),
        z2_exit=0 if erg.overall is not False else 1,
        mahler_exit=0 if mahler_ok else 1,
    )


def cli_batch(api, inp):
    """One batch job: eleven CLI commands chained through JSON files."""
    f = inp.files
    fails = []

    def run(command, *argv, want=0, out=None):
        code, text = api.cli(command, *argv)
        expect(fails, code == want, "%s exited %d, expected %d" % (" ".join(argv[:1] + argv[-2:]), code, want))
        if out is not None:
            out.write_text(text)
        return text

    run("gen-cycle", "gen-cycle", "--n", str(K_CLI - 1), "--seed", str(inp.cycle_seed), out=f.table)
    run("verify-exhaustive", "verify", "--exhaustive", "--table", str(f.table))
    run("expand", "expand", "--basis", "vdp", "--table", str(f.table), out=f.vdp)
    run("verify", "verify", "--ring", "f2t", "--basis", "vdp", "--check", "ergodic", "--coeffs", str(f.vdp))
    stream = run("keystream", "keystream", "--coeffs", str(f.vdp), "--x0", "0x0", "--steps", str(1 << K_CLI))
    expect(fails, len({int(x, 16) for x in stream.split()}) == 1 << K_CLI, "keystream is not one full period")
    run("verify", "verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic", "--coeffs", str(f.carlitz))
    run("convert", "convert", "--from", "carlitz", "--to", "vdp", "--coeffs", str(f.carlitz), out=f.conv)
    values = [json.loads(run("eval", "eval", "--coeffs", str(p), "--x", inp.x))["value"] for p in (f.carlitz, f.conv)]
    expect(fails, values[0] == values[1], "eval differs across bases: %s vs %s" % tuple(values))
    run("verify", "verify", "--ring", "z2", "--basis", "vdp", "--check", "ergodic", "--coeffs", str(f.z2),
        want=inp.z2_exit)
    run("verify", "verify", "--ring", "z2", "--basis", "mahler", "--check", "ergodic", "--coeffs", str(f.mahler),
        want=inp.mahler_exit)
    return fails


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    make_input: Callable
    op: Callable

    def prepare(self, api, seed, index, workdir):
        """The input of op `index` under `seed`; the same arguments give the same input."""
        return self.make_input(api, random.Random("%s:%d:%d" % (self.name, seed, index)), index, workdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vdp-certify", True, vdp_input, vdp_certify),
        Workload("carlitz-dense", True, carlitz_input, carlitz_dense),
        Workload("cli-batch", False, cli_input, cli_batch),
    )
}
