"""Operator surface: keystore generation, rate tables, achievability
checks, secrecy simulation, Monte Carlo experiments, one-time-pad file
encryption and multipath planning.

Exit codes: 0 success; 1 and 2 only as verdicts (1: `check` not
achievable, a rank-deficient `simulate`, an infeasible `multipath`, a
failing `paper-tables` row; 2: `check` undecided); 3 for every other
failure, usage errors and any ValueError, OSError or MemoryError, all
decided in the `main` group.  Without --seed or NETPAD_SEED a command
draws a fresh seed; every run echoes its seed, so outputs replay bit-for-bit.
"""

from __future__ import annotations

import csv
import json
import math
import secrets
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import adversary, amplify, keystore_io, multipath, rates
from .gf2 import RNG_ALGORITHM, BitString
from .predistribution import SchemeSpec, generate, parse_fraction
from .secure_check import (
    RateProfile,
    Status,
    check_exact,
    check_feasibility,
    check_relaxed,
)

EXIT_NOT_ACHIEVABLE = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3

_STATUS_EXIT = {
    Status.ACHIEVABLE: 0,
    Status.NOT_ACHIEVABLE: EXIT_NOT_ACHIEVABLE,
    Status.UNDECIDED: EXIT_UNDECIDED,
}


def frac(x: Fraction) -> str:
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator} (~{float(x):.4g})"
    except ValueError:  # an int past sys.get_int_max_str_digits() digits
        return f"~{float(x):.4g} (too many digits to print exactly)"


# --seed, else NETPAD_SEED, in 0..2^63-1, where no two seeds fold to one.
seed_option = click.option("--seed", type=click.IntRange(0, 2**63 - 1), envvar="NETPAD_SEED",
                           show_envvar=True)


def _resolve_seed(seed) -> int:
    """seed, else a fresh one: a fixed default would make every default
    keystore public and reuse one pad across runs."""
    return secrets.randbits(63) if seed is None else seed


def _parse_profile(text: str, n: int) -> RateProfile:
    if text.startswith("uniform:"):
        return RateProfile.uniform(n, parse_fraction(text[len("uniform:"):]))
    return RateProfile.from_json(Path(text).read_text())


class _Netpad(click.Group):
    """Decides every exit code that is not a verdict: a click error (usage
    errors included), ValueError, OSError or MemoryError exits 3, whether
    it comes from parsing the group's arguments or from invoking a command."""

    def parse_args(self, ctx, args):
        return self._exit_3(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return self._exit_3(super().invoke, ctx)

    @staticmethod
    def _exit_3(call, *args):
        try:
            return call(*args)
        except click.ClickException as exc:
            exc.exit_code = EXIT_ERROR
            raise
        except (ValueError, OSError, MemoryError) as exc:
            error = click.ClickException(str(exc) or type(exc).__name__)
            error.exit_code = EXIT_ERROR
            raise error from exc


@click.group(cls=_Netpad)
def main():
    """Information-theoretically secure network communication toolkit."""


@main.command()
@click.option("--n", type=int, required=True, help="Node count.")
@click.option("--t", type=int, required=True, help="Max hacked nodes.")
def capacity(n, t):
    """Network and channel capacity for an n-node network."""
    caps = rates.capacity(rates.NetworkParams(n, t))
    click.echo(f"n={n} t={t}")
    click.echo(f"network capacity: {frac(caps.net)}")
    click.echo(f"channel capacity: {frac(caps.channel)}")


@main.command("rates")
@click.option("--scheme", "scheme_text", required=True, help="Scheme spec, e.g. comb:a=3.")
@click.option("--n", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--sweep-a", is_flag=True, help="Sweep a=2..n for the combinational scheme.")
def rates_cmd(scheme_text, n, t, sweep_a):
    """Maximum network/channel rates of a scheme."""
    params = rates.NetworkParams(n, t)
    if sweep_a:
        click.echo("a\tgamma\tnet\tchannel")
        for a in range(2, n + 1):
            g = rates.gamma(params, a)
            r = rates.combinational_max_rates(params, a)
            click.echo(f"{a}\t{frac(g)}\t{frac(r.net)}\t{frac(r.channel)}")
        return
    spec = SchemeSpec.parse(scheme_text)
    r = rates.scheme_max_rates(spec, params)
    click.echo(f"scheme={spec.canonical()} n={n} t={t}")
    click.echo(f"max network rate: {frac(r.net)}")
    click.echo(f"max channel rate: {frac(r.channel)}")


@main.command()
@click.option("--scheme", "scheme_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--l", type=click.IntRange(1), required=True, help="Per-node secret-bit budget.")
@seed_option
@click.option("--out", type=click.Path(), required=True)
@click.option("--node", type=click.IntRange(1, 2**32 - 1), default=None,
              help="Export only this node's view (what a deployed node carries).")
@click.option("--strict", is_flag=True, help="Error when quotas do not divide l.")
def keygen(scheme_text, n, l, seed, out, node, strict):
    """Generate a keystore file (magic NPKS)."""
    seed = _resolve_seed(seed)
    spec = SchemeSpec.parse(scheme_text)
    ks = generate(spec, n, l, seed, strict=strict)
    if node is None:
        keystore_io.save(ks, out)
    else:
        keystore_io.save_node_view(ks, node, out)
    click.echo(f"wrote {out}: scheme={spec.canonical()} n={n} l={l} u={ks.u} "
               f"seed={seed} rng={RNG_ALGORITHM}")


def _load_or_generate(store, scheme_text, n, l, seed):
    """--store, whose file fixes scheme, n and l, or a store generated from those three."""
    given = [f"--{k}" for k, v in (("scheme", scheme_text), ("n", n), ("l", l)) if v is not None]
    if store is not None:
        if given:
            raise click.UsageError(f"--store defines the keystore; drop {', '.join(given)}")
        return keystore_io.load(store)
    if scheme_text is None or n is None:
        raise click.ClickException("need either --store or --scheme/--n/--l")
    return generate(SchemeSpec.parse(scheme_text), n, 1260 if l is None else l, seed)


@main.command()
@click.option("--store", type=click.Path(), default=None)
@click.option("--scheme", "scheme_text", default=None)
@click.option("--n", type=int, default=None)
@click.option("--l", type=click.IntRange(1), default=None, help="Per-node budget [default: 1260].")
@click.option("--t", type=int, required=True)
@click.option("--profile", "profile_text", required=True,
              help="Profile JSON file or uniform:<rate>.")
@click.option("--method", type=click.Choice(["exact", "relaxed", "feasibility"]),
              default="exact")
@seed_option
@click.option("--out", type=click.Path(), default=None, help="Write verdict JSON here.")
def check(store, scheme_text, n, l, t, profile_text, method, seed, out):
    """Decide achievability of a rate profile (exit 0/1/2)."""
    seed = _resolve_seed(seed)
    ks = _load_or_generate(store, scheme_text, n, l, seed)
    profile = _parse_profile(profile_text, ks.n)
    if method == "exact":
        verdict = check_exact(ks, profile, t)
    elif method == "relaxed":
        verdict = check_relaxed(ks.scheme, ks.n, t, profile)
    else:
        verdict = check_feasibility(ks, profile, t)
    doc = json.loads(verdict.to_json())
    doc["config"] = {"n": ks.n, "t": t, "scheme": ks.scheme.canonical(),
                     "l": ks.l, "seed": seed, "method": method,
                     "rng": RNG_ALGORITHM}
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text)
    click.echo(text)
    sys.exit(_STATUS_EXIT[verdict.status])


@main.command()
@click.option("--store", type=click.Path(), default=None)
@click.option("--scheme", "scheme_text", default=None)
@click.option("--n", type=int, default=None)
@click.option("--l", type=click.IntRange(1), default=None, help="Per-node budget [default: 1260].")
@click.option("--t", type=int, required=True)
@click.option("--profile", "profile_text", required=True)
@click.option("--d", type=click.IntRange(1), default=amplify.DEFAULT_WEIGHT)
@seed_option
def simulate(store, scheme_text, n, l, t, profile_text, d, seed):
    """One end-to-end run: encrypt at the profile's rates with the last t
    nodes hacked, then report the rank-based secrecy witness."""
    seed = _resolve_seed(seed)
    ks = _load_or_generate(store, scheme_text, n, l, seed)
    profile = _parse_profile(profile_text, ks.n)
    tr = adversary.profile_transcript(ks, profile, rates.NetworkParams(ks.n, t).last_t_nodes,
                                      d, seed)
    witness = adversary.build_security_matrix(ks, tr)
    click.echo(f"scheme={ks.scheme.canonical()} n={ks.n} t={t} l={ks.l} d={d} "
               f"seed={seed} rng={RNG_ALGORITHM}")
    click.echo(f"messages={len(tr.ciphertexts)} key_rows={witness.a_matrix.n_rows} "
               f"unhacked_cols={witness.a_matrix.n_cols} rank={witness.rank}")
    if not tr.ciphertexts:
        click.echo("no messages: nothing to certify")
    elif witness.full_rank:
        click.echo("witness: FULL RANK — perfect secrecy certified for this transcript")
    else:
        click.echo("witness: RANK DEFICIENT — transcript is NOT perfectly secret")
        sys.exit(EXIT_NOT_ACHIEVABLE)


def _not_nan(_ctx, _param, x: float) -> float:
    """FloatRange lets NaN through: it fails no comparison."""
    if math.isnan(x):
        raise click.BadParameter("nan is not a number")
    return x


def _density_mode(mode: str, r: int) -> tuple:
    """--mode as lemma_rank_experiment's density mode: bernoulli:<c> with a
    row density c*ln(r)/r in (0, 1], or fixed:<d> with 1 <= d <= r."""
    kind, _, param = mode.partition(":")
    try:
        if kind == "bernoulli":
            c = float(param or 1)
            density = c * math.log(r) / r
            if not 0 < density <= 1:  # NaN fails too
                raise ValueError(f"density c*ln(r)/r = {density:.4g} at r={r} "
                                 "is not in (0, 1]")
            return ("bernoulli", c)
        if kind == "fixed":
            d = int(param or amplify.DEFAULT_WEIGHT)
            if not 1 <= d <= r:
                raise ValueError(f"fixed weight {d} is not in 1..r={r}")
            return ("fixed_weight", d)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--mode") from None
    raise click.BadParameter(f"unknown mode {mode!r}", param_hint="--mode")


@main.command()
@click.argument("name", type=click.Choice(["lemma-rank", "cross-independence", "full-rank"]))
@click.option("--r", type=click.IntRange(1), default=2000, help="Columns for lemma-rank.")
@click.option("--ratio", type=click.FloatRange(0, float("inf"), min_open=True, max_open=True),
              callback=_not_nan,
              default=0.9, help="Row/column ratio k/r.")
@click.option("--mode", default="bernoulli:1",
              help="bernoulli:<c> (density c*ln(r)/r in (0, 1]) or fixed:<d> (1 <= d <= r).")
@click.option("--scheme", "scheme_text", default="comb:a=3")
@click.option("--n", type=int, default=4)
@click.option("--t", type=int, default=1)
@click.option("--profile", "profile_text", default=None)
@click.option("--l", "l_values", type=click.IntRange(1), multiple=True, default=(4000,))
@click.option("--d", type=click.IntRange(1), default=amplify.DEFAULT_WEIGHT)
@click.option("--trials", type=click.IntRange(1), default=100)
@seed_option
@click.option("--out", type=click.Path(), default=None, help="CSV output path.")
def experiment(name, r, ratio, mode, scheme_text, n, t, profile_text, l_values,
               d, trials, seed, out):
    """Monte Carlo experiments; results as CSV rows."""
    seed = _resolve_seed(seed)
    if name == "lemma-rank":
        results = [adversary.lemma_rank_experiment(r, ratio, _density_mode(mode, r),
                                                   trials, seed)]
    else:
        spec = SchemeSpec.parse(scheme_text)
        profile = (_parse_profile(profile_text, n) if profile_text
                   else RateProfile.uniform(n, Fraction(1, 18)))
        if name == "cross-independence":
            results = adversary.cross_independence_experiment(
                spec, n, t, profile, list(l_values), trials, seed, d=d)
        else:
            results = [adversary.full_rank_experiment(
                spec, n, t, profile, l, d, trials, seed) for l in l_values]
    rows = [
        [res.name, json.dumps(res.params, sort_keys=True), res.trials,
         res.successes, f"{res.p_hat:.6f}", f"{res.ci_low:.6f}",
         f"{res.ci_high:.6f}", res.seed]
        for res in results
    ]
    header = ["experiment", "params", "trials", "successes", "p_hat",
              "ci_low", "ci_high", "seed"]
    target = open(out, "w", newline="") if out else sys.stdout
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows(rows)
    if out:
        target.close()
        click.echo(f"wrote {out}")


@main.command("encrypt")
@click.option("--keystore", "store_path", type=click.Path(), required=True,
              help="Node-view keystore of the sending node.")
@click.option("--peer", type=int, required=True)
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--counter", type=click.IntRange(1, 2**64 - 1), default=1)
@seed_option
def encrypt_cmd(store_path, peer, in_path, out, counter, seed):
    """One-time-pad encrypt a file to a peer node (magic NPCT)."""
    seed = _resolve_seed(seed)
    view = keystore_io.load_node_view(store_path)
    plaintext = BitString.from_bytes(Path(in_path).read_bytes())
    state = amplify.ChannelCipherState(view.node, peer, counter=counter - 1)
    ct = amplify.encrypt(view, state, plaintext, seed=seed)
    Path(out).write_bytes(ct.to_bytes())
    click.echo(f"wrote {out}: channel {state.pair} counter={ct.counter} "
               f"bits={len(plaintext)} seed={seed}")


@main.command("decrypt")
@click.option("--keystore", "store_path", type=click.Path(), required=True)
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), required=True)
def decrypt_cmd(store_path, in_path, out):
    """Decrypt an NPCT ciphertext file."""
    view = keystore_io.load_node_view(store_path)
    ct = amplify.CipherText.from_bytes(Path(in_path).read_bytes())
    plaintext = amplify.decrypt(view, amplify.ChannelCipherState(ct.i, ct.j), ct)
    Path(out).write_bytes(plaintext.to_bytes())
    click.echo(f"wrote {out}: {len(plaintext)} bits from channel ({ct.i},{ct.j})")


@main.command("multipath")
@click.option("--topology", "topo_path", type=click.Path(), required=True)
@click.option("--s", type=int, required=True)
@click.option("--dst", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--message-bits", type=click.IntRange(1), default=1)
def multipath_cmd(topo_path, s, dst, t, message_bits):
    """Plan t+1 node-disjoint secret-sharing paths (JSON plan)."""
    topo = multipath.Topology.from_json(Path(topo_path).read_text())
    found = multipath.disjoint_paths(topo, s, dst, t + 1)
    if not found.feasible:
        click.echo(f"only {found.max_count} node-disjoint paths available "
                   f"(need {t + 1}); separator {found.separator}")
        sys.exit(EXIT_NOT_ACHIEVABLE)
    click.echo(multipath.plan(topo, s, dst, t, message_bits).to_json())


@main.command("paper-tables")
def paper_tables():
    """Regenerate the reference worked numbers and diff against stored
    expectations (regression table)."""
    failures = 0

    def row(label, got, expected, ok=None):
        nonlocal failures
        ok = (got == expected) if ok is None else ok
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        click.echo(f"[{status}] {label}: got {got}, expected {expected}")

    caps41 = rates.capacity(rates.NetworkParams(4, 1))
    row("channel capacity n=4 t=1", caps41.channel, Fraction(1, 3))
    row("network capacity n=4 t=1", caps41.net, Fraction(2))
    row("channel capacity n=5 t=1",
        rates.capacity(rates.NetworkParams(5, 1)).channel, Fraction(1, 3))

    p100 = rates.NetworkParams(100, 1)
    pair = rates.combinational_max_rates(p100, 2)
    row("pairwise n=100 t=1 net", pair.net, Fraction(50))
    row("pairwise n=100 t=1 channel", pair.channel, Fraction(1, 99))
    hyb = rates.hybrid_max_rates([
        (Fraction(1, 2), pair),
        (Fraction(1, 2), rates.combinational_max_rates(p100, 25)),
    ])
    row("hybrid n=100 t=1 net ~26.53", round(float(hyb.net), 2), 26.53)
    row("hybrid n=100 t=1 channel ~0.0978", round(float(hyb.channel), 4), 0.0978)

    row("gamma(t,3) = (n-t-2)/(n-2) at n=10 t=3",
        rates.gamma(rates.NetworkParams(10, 3), 3), Fraction(5, 8))

    for label, r in [("same-key", rates.MaxRates(Fraction(1), Fraction(1))),
                     ("pairwise", rates.MaxRates(Fraction(5), Fraction(1, 9)))]:
        res = rates.tradeoff_check(rates.NetworkParams(10, 0), r)
        row(f"tradeoff equality for {label} scheme (n=10)", res.slack, Fraction(0))

    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 1260, 0)
    eps = Fraction(1, 2**20)
    cases = [
        ("four-node t=0 r12<2/3 boundary",
         check_exact(ks, RateProfile(4, {(1, 2): Fraction(2, 3)}), 0).status,
         Status.NOT_ACHIEVABLE),
        ("four-node t=0 row-sum<1 boundary",
         check_exact(ks, RateProfile(4, {(1, 2): Fraction(1, 3), (1, 3): Fraction(1, 3),
                                         (1, 4): Fraction(1, 3)}), 0).status,
         Status.NOT_ACHIEVABLE),
        ("four-node t=0 total<4/3 boundary",
         check_exact(ks, RateProfile.uniform(4, Fraction(2, 9)), 0).status,
         Status.NOT_ACHIEVABLE),
        ("four-node t=1 r=1/9 rejected",
         check_exact(ks, RateProfile.uniform(4, Fraction(1, 9)), 1).status,
         Status.NOT_ACHIEVABLE),
        ("four-node t=1 r=1/9-eps accepted",
         check_exact(ks, RateProfile.uniform(4, Fraction(1, 9) - eps), 1).status,
         Status.ACHIEVABLE),
    ]
    for label, got, expected in cases:
        row(label, got.value, expected.value)

    click.echo(f"{'OK' if failures == 0 else 'FAILED'}: "
               f"{len(cases) + 10 - failures} checks passed, {failures} failed")
    if failures:
        sys.exit(EXIT_NOT_ACHIEVABLE)


if __name__ == "__main__":
    main()
