"""Census: which ``src/repro`` definitions does no product run reach?

Runs, in this process and under a ``sys.setprofile`` hook (threads too):

* every ``benchmarks/e2e`` workload at ``--smoke`` size, in ``run.py``'s
  child mode (set-up, one unit and its correctness checks, the traced
  per-layer pass);
* each CLI verb's smoke on a small synthetic graph: ``stats``, ``index
  build`` / ``inspect``, ``discover`` (serial, then two multiprocess
  workers), ``enforce`` (serial, then two multiprocess workers, with a
  violation cap), ``cover``, ``pipeline``, and ``serve`` for a few seconds
  with one HTTP request per route.

It then prints every function and method defined in ``src/repro`` —
outside ``repro/oracle/``, which only tests and benchmarks call —
whose code never started, one ``module:line qualname`` per line.  A name
on the list is a candidate for deletion or for the oracle package, not a
verdict: grep it across ``src``, ``tests``, ``benchmarks``, ``examples``
and the README first.

Forked multiprocess workers are not traced: code that only a worker
process runs is listed unless an in-process (serial) run reaches it too.

Usage::

    PYTHONPATH=src python benchmarks/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import socket
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
E2E = ROOT / "benchmarks" / "e2e"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(E2E))

#: ``(file, first line)`` of every code object started under the hook.
REACHED = set()
_PREFIX = str(SRC)


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_PREFIX):
            REACHED.add((code.co_filename, code.co_firstlineno))


def definitions():
    """``(file, first line, module, qualname)`` of every function and
    method in ``src/repro`` outside the oracle package.  The first line is
    a decorated function's first decorator, as in its code object."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("oracle/"):
            continue

        def visit(body, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [node.lineno] + [d.lineno for d in node.decorator_list]
                    )
                    found.append((str(path), first, module, prefix + node.name))

        visit(ast.parse(path.read_text()).body, "")
    return found


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _poke_server(port: int) -> None:
    """One request per route once the server answers ``/healthz``."""
    base = f"http://127.0.0.1:{port}"
    for _ in range(200):
        try:
            urllib.request.urlopen(base + "/healthz", timeout=1).read()
            break
        except OSError:
            time.sleep(0.05)
    posts = [
        ("/validate", b"{}"),
        ("/mutate",
         b'{"ops": [{"op": "set_attr", "node": 1, "attr": "a1", "value": "x"}]}'),
        ("/validate", b"{}"),
        ("/discover", b'{"max_rules": 5}'),
        ("/cover", b"{}"),
    ]
    for path, body in posts:
        with contextlib.suppress(OSError):
            urllib.request.urlopen(base + path, data=body, timeout=30).read()
    for path in ("/stats", "/metrics"):
        with contextlib.suppress(OSError):
            urllib.request.urlopen(base + path, timeout=30).read()


def run_products(work: Path) -> None:
    """The e2e smoke workloads, then every CLI verb's smoke."""
    import run as e2e_run
    from repro.cli import main
    from repro.datasets.synthetic import synthetic_graph
    from repro.graph.io import save_json

    for workload in e2e_run.WORKLOAD_NAMES:
        with contextlib.redirect_stdout(io.StringIO()):
            e2e_run.main(["--child", "--workload", workload, "--smoke"])

    graph = str(work / "graph.json")
    save_json(
        synthetic_graph(600, 2400, num_labels=5, num_values=12,
                        regularity=0.85, seed=11),
        graph,
    )
    rules = str(work / "rules.json")
    mining = ["--k", "2", "--sigma", "30", "--max-lhs", "1"]
    verbs = [
        ["stats", graph],
        ["index", "build", graph, "-o", str(work / "graph.rgix")],
        ["index", "inspect", str(work / "graph.rgix")],
        ["discover", graph, *mining, "--output", rules],
        ["discover", graph, *mining, "--workers", "2", "--backend", "multiprocess"],
        ["enforce", graph, rules, "--json", str(work / "report.json")],
        ["enforce", graph, rules, "--workers", "2", "--backend", "multiprocess",
         "--max-violations-per-rule", "1"],
        ["cover", rules, "--output", str(work / "cover.json")],
        ["pipeline", graph, *mining, "--metrics", str(work / "metrics.json")],
    ]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in verbs:
            main(argv)
        port = _free_port()
        client = threading.Thread(target=_poke_server, args=(port,))
        client.start()
        main(["serve", graph, "--rules", rules, "--port", str(port),
              "--duration", "4", "--commit-linger", "0.001"])
        client.join()


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        threading.setprofile(_hook)
        sys.setprofile(_hook)
        try:
            run_products(Path(scratch))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    found = definitions()
    unreached = [
        (module, line, name)
        for path, line, module, name in found
        if (path, line) not in REACHED
    ]
    for module, line, name in unreached:
        print(f"{module}:{line}\t{name}")
    print(
        f"# {len(unreached)} of {len(found)} definitions outside repro/oracle/ "
        f"reached by no product run ({time.perf_counter() - started:.0f} s); "
        "forked multiprocess workers are not traced"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
