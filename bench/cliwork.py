"""The `cli` workload: weylgeom commands, each in a fresh interpreter.

A round runs every command of the draw twice, once without a disk cache
and once with --cache-dir pointing at a directory that is empty when the
round starts, in an order the seed shuffles: early cached commands write
character tables and later ones read them.  Only one child runs at a
time.  The seed also picks among commands of equal cost (dual weights,
mirror nodes, triality images); every round runs the same commands.
"""

import json
import os
import random
import shutil
import subprocess
import tempfile

import oracles as O

CHILD_TIMEOUT_S = 60


def _weight(w):
    return ",".join(str(x) for x in w)


def _draw(rng, quick):
    """The commands of one round, as (argv, check) pairs."""
    pick = rng.choice
    e6 = pick([1, 6])
    d4 = pick([1, 3, 4])
    d6 = pick([5, 6])
    cmds = [
        (["dims", "E6"], _dims("E6", 1)),
        (["orbit", "F4", pick(["1,0,0,0", "0,0,0,1"])], _orbit("F4")),
        (["invariants", "D4", _weight(O.fundamental(4, d4))],
         _invariants("D4", "std")),
        (["branch", pick(["e6-levi-d5", "e6-fold-f4"])], _branch("E6", 27)),
        (["incidence", "A4", "--beta", pick(["1", "4"])], _incidence),
        (["triality", "psi"], _triality_psi),
    ]
    if not quick:
        cmds += [
            (["dims", "D6", "--beta", str(d6)], _dims("D6", d6)),
            (["hasse", "E6", str(e6)], _hasse("E6", e6)),
            (["invariants", "G2", "0,1"], _invariants("G2", "adj")),
            (["invariants", "E7", "0,0,0,0,0,0,1"], _invariants("E7", "std")),
            (["branch", "e7-levi-e6"], _branch("E7", 56)),
            (["incidence", "E6"], _incidence),
            (["duality", "e6-brace-dims"], _duality_any),
            (["verify", "e6-duality"], _verify),
        ]
    return cmds


def build_rounds(seed, quick):
    """The command list every round runs: (argv, check, cached)."""
    rng = random.Random(seed)
    runs = []
    for argv, check in _draw(rng, quick):
        runs.append((argv, check, False))
        runs.append((argv, check, True))
    rng.shuffle(runs)
    return runs


# -- oracles -----------------------------------------------------------------


def _dims(name, beta):
    cartan = O.cartan(name)
    family, n = O.parse_name(name)

    def check(stdout):
        p = json.loads(stdout)
        if p["beta"] != beta:
            return "beta %r, want %d" % (p["beta"], beta)
        for d in range(1, n + 1):
            got = p["dimensions"][str(d)]
            want = O.delta_space_dim(cartan, beta, d)
            if want is not None and got != want:
                return "delta %d: dimension %d, want %d" % (d, got, want)
            if p["minuscule"] and p["support_sizes"][str(d)] != got:
                return "delta %d: support size differs from dimension" % d
        if p["minuscule"] != (O.minuscule_dim(family, n, beta) is not None):
            return "minuscule flag"
        return None
    return check


def _hasse(name, index):
    cartan = O.cartan(name)
    family, n = O.parse_name(name)
    dim = O.minuscule_dim(family, n, index)

    def check(stdout):
        p = json.loads(stdout)
        if len(p["nodes"]) != dim:
            return "%d nodes, want %d" % (len(p["nodes"]), dim)
        for u, v, i in p["edges"]:
            if tuple(a - b for a, b in zip(u, cartan[i - 1])) != tuple(v):
                return "edge %r -> %r is not alpha_%d" % (u, v, i)
        return None
    return check


def _orbit(name):
    cartan = O.cartan(name)

    def check(stdout):
        p = json.loads(stdout)
        want = O.orbit_size(cartan, tuple(p["weight"]))
        distinct = {tuple(w) for w in p["orbit"]}
        if p["size"] != want or len(distinct) != want:
            return "orbit size %d, want %d" % (p["size"], want)
        return None
    return check


def _invariants(name, rep):
    cartan = O.cartan(name)

    def check(stdout):
        p = json.loads(stdout)
        if p["dimension"] != O.weyl_dim(cartan, tuple(p["weight"])):
            return "dimension %d" % p["dimension"]
        for kind, table in (("sym", p["symmetric_trivial"]),
                            ("ext", p["exterior_trivial"])):
            for k, got in table.items():
                want = O.power_trivial(name, rep, kind, int(k))
                if want is not None and got != want:
                    return "%s^%s trivial %d, want %d" % (kind, k, got, want)
        sym2 = O.power_trivial(name, rep, "sym", 2)
        ext2 = O.power_trivial(name, rep, "ext", 2)
        if None not in (sym2, ext2):
            want = "Symmetric" if sym2 else "Skew" if ext2 else None
            if p["bilinear"] != want:
                return "bilinear %r, want %r" % (p["bilinear"], want)
        return None
    return check


def _branch(name, dim):
    def check(stdout):
        p = json.loads(stdout)
        total = sum(x["multiplicity"] * x["dimension"]
                    for x in p["decomposition"])
        if total != dim or p["dimension_check"] != dim:
            return "pieces sum to %d, want %d" % (total, dim)
        return None
    return check


def _incidence(stdout):
    p = json.loads(stdout)
    if any(x["incident"] is False for x in p["pairs"]):
        return "a standard chamber pair is not incident"
    if p["counts"]["not_incident"]:
        return "not_incident count"
    return None


def _triality_psi(stdout):
    p = json.loads(stdout)
    if p["cycle"] != {"1": 3, "2": 2, "3": 4, "4": 1}:
        return "node rotation %r" % p["cycle"]
    if not all(s["matches_standard"] for s in p["spaces"]):
        return "a standard space is not sent to a standard space"
    return None


def _duality_any(stdout):
    p = json.loads(stdout)
    if "histogram" in p:
        # the parabolic D5 cuts the 27 into orbits of 1, 10 and 16 weights
        if sorted(p["histogram"].values()) != [1, 10, 16]:
            return "histogram %r" % p["histogram"]
        return None
    sizes = {s["delta"]: s["size"] for s in p["spaces"]}
    for s in p["spaces"]:
        if s["psi_size"] != sizes[s["psi_delta"]]:
            return "psi of type %d has the wrong size" % s["delta"]
    return None


def _verify(stdout):
    lines = stdout.splitlines()
    if not lines or not all(line.startswith("PASS ") for line in lines):
        return "verify: %r" % lines
    return None


# -- running -----------------------------------------------------------------


class CliRunner:
    """Runs rounds of commands, one child at a time, from the parent."""

    def __init__(self, python, child, env, out_dir, seed, quick):
        self.python = python
        self.child = child
        self.env = env
        self.out_dir = out_dir
        self.runs = build_rounds(seed, quick)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def round(self, trace):
        """Run every command once; returns the per-command records and
        the number of files the cached commands created."""
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        records = []
        try:
            for i, (argv, check, cached) in enumerate(self.runs):
                full = (["--cache-dir", cache] if cached else []) + argv
                before = len(os.listdir(cache))
                rec = self._one(full, check, trace, i)
                rec["warm"] = cached and len(os.listdir(cache)) == before
                records.append(rec)
            files = len(os.listdir(cache))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return records, files

    def _one(self, argv, check, trace, i):
        spans = os.path.join(self.out_dir, "spans-cli-%d.jsonl" % i) \
            if trace else "-"
        proc = subprocess.run(
            [self.python, "-S", self.child, "1" if trace else "0", spans]
            + argv, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        self.attempted += 1
        problem = None
        rec = None
        try:
            rec = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            problem = "child exited %d: %s" % (proc.returncode,
                                               proc.stderr.strip()[-300:])
        if rec is not None:
            if rec["code"] != 0:
                problem = "exit %r: %s" % (rec["code"], rec["stderr"][-300:])
            else:
                try:
                    problem = check(rec["stdout"])
                except (ValueError, KeyError, TypeError) as exc:
                    problem = "unreadable output (%s: %s)" % (
                        type(exc).__name__, exc)
        if problem:
            self.failed += 1
            self.problems.append("weylgeom %s: %s" % (" ".join(argv),
                                                      problem))
        return rec or {"kernel": None, "import_ref": 0.0, "import_wall": 0.0,
                       "main_ref": 0.0, "main_wall": 0.0, "rss_kb": 0}
