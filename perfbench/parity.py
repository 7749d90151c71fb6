"""CLI parity: one request of each kind replayed through `tropgrass.cli.run`.

The request's input goes into temp files, the CLI writes its JSON
report, and the report must agree with the answer the benchmark's
handler gave for the same input.  This is the `cli` layer's coverage.
"""

from __future__ import annotations

import json
import os
import tempfile

from tropgrass import cli, treespace


def _write(tmp, name, data):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(data if isinstance(data, str) else json.dumps(data))
    return path


def _run(t, tmp, argv):
    out = os.path.join(tmp, "report.json")
    if os.path.exists(out):
        os.remove(out)
    code = t.call("cli.run", cli.run, argv + ["--output", out])
    if not os.path.exists(out):
        return code, ["(no report written)"], {}
    with open(out) as fh:
        report = json.load(fh)
    failed = sorted(c["name"] for c in report["claims"] if not c["pass"])
    return code, failed, report


def check(t, req, ans, workdir):
    """Problems found replaying req through the CLI (empty when in
    parity); temp files go under workdir."""
    kind = req["kind"]
    errors = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:

        def expect(argv, failing=()):
            code, failed, report = _run(t, tmp, argv)
            if failed != sorted(failing) or code != (2 if failing else 0):
                errors.append(f"{' '.join(argv[:2])}: exit {code}, failed claims {failed}")
            return report

        if kind in ("tree_exact", "tree_perturbed"):
            path = _write(tmp, "d.csv", req["csv"])
            if ans["accepted"]:
                rep = expect(["tree", "reconstruct", "--input", path])
                if rep.get("newick") != ans["newick"] or rep.get("splits") != json.loads(ans["split_json"]):
                    errors.append("tree reconstruct: report differs from the handler")
            else:
                rep = expect(["tree", "reconstruct", "--input", path],
                             failing=["four_point_condition"])
                if rep.get("violating_quadruple") != list(ans["quad"]):
                    errors.append("tree reconstruct: quadruple differs from the handler")
        elif kind.startswith("oracle"):
            wpath = _write(tmp, "w.json", ans["w"].to_json())
            for idx in (0, len(ans["points"]) - 1):
                point = ",".join(str(v) for v in ans["points"][idx])
                rep = expect(["plane", "member", "--w", wpath, f"--point={point}"])
                member, J = ans["member"][idx]
                if rep.get("member") != member or (
                        not member and rep.get("violating_circuit") != "".join(map(str, J))):
                    errors.append(f"plane member: point {idx} differs from the handler")
            rep = expect(["plane", "dual", "--w", wpath])
            if rep.get("dual") != json.loads(ans["dual_json"]):
                errors.append("plane dual: report differs from the handler")
            rep = expect(["plane", "reconstruct", "--w", wpath])
            if rep.get("reconstructed") != json.loads(ans["reconstructed_json"]):
                errors.append("plane reconstruct: report differs from the handler")
        elif kind == "type":
            rep = expect(["plane", "type", "--w", _write(tmp, "w.json", req["w"])])
            if rep.get("types") != ans["types"] or rep.get("bounded") != ans["bounded"]:
                errors.append("plane type: report differs from the handler")
        elif kind == "tree_cone":
            tree = treespace.SemiLabeledTree.from_split_json(json.dumps(req["tree"]))
            wpath = _write(tmp, "w.json", treespace.tree_to_plucker(tree).to_json())
            rep = expect(["groebner", "initial", "--d", "2", "--n", str(req["n"]),
                          "--char", str(req["char"]), "--w", wpath])
            if rep.get("generators") != sorted(str(g) for g in ans["generators"]):
                errors.append("groebner initial: report differs from the handler")
        elif kind == "g36_degree":
            wpath = _write(tmp, "w.json", ans["w"].to_json())
            rep = expect(["groebner", "degree", "--d", "3", "--n", "6", "--w", wpath])
            if rep.get("degree") != ans["degree"]:
                errors.append("groebner degree: report differs from the handler")
        else:
            wpath = _write(tmp, "w.json", req["w"])
            rep = expect(["groebner", "monomial-free", "--d", "2",
                          "--n", str(req["n"]), "--w", wpath])
            witness = None if ans["witness"] is None else str(ans["witness"])
            if rep.get("free") != ans["free"] or rep.get("witness") != witness:
                errors.append("groebner monomial-free: report differs from the handler")
    return errors


def replay(t, records, errors, workdir):
    """Replay the first completed request of each kind through the CLI;
    a mismatch is added to that request's entry in `errors`."""
    seen = set()
    for i, r in enumerate(records):
        if r.ans is None or r.req["kind"] in seen:
            continue
        seen.add(r.req["kind"])
        try:
            problems = check(t, r.req, r.ans, workdir)
        except Exception as exc:  # a CLI crash is a parity failure
            problems = [f"raised {type(exc).__name__}: {exc}"]
        errors[i] += [f"cli: {p}" for p in problems]
