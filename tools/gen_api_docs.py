#!/usr/bin/env python
"""Generate the docs/api/*.md pages from the library's docstrings.

Stdlib-only (inspect + re), so the pages can be regenerated anywhere the
package imports.  The generated files are committed; CI runs this script with
``--check`` to fail when they drift from the source docstrings, then builds
the site with ``mkdocs build --strict``.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py          # (re)write docs/api/
    PYTHONPATH=src python tools/gen_api_docs.py --check  # verify, exit 1 on drift
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
API_DIR = REPO_ROOT / "docs" / "api"

#: page file name -> (title, intro, module names rendered on the page).
PAGES: dict[str, tuple[str, str, list[str]]] = {
    "exec.md": (
        "repro.exec — execution contexts",
        "The execution layer: one `ExecutionContext` object decides *how* every "
        "experiment and sweep runs (backend, workers, seed, cache) and owns the "
        "worker nodes it forks, whose batch maps always ship through the "
        "zero-copy shared-memory transport of `repro.exec.shm`.",
        ["repro.exec.context", "repro.exec.shm"],
    ),
    "cluster.md": (
        "repro.exec.cluster — the off-process engine",
        "The stdlib-only engine behind every off-process `ExecutionContext`: "
        "a coordinator shards jobs over worker processes — forked local nodes "
        "for `process-pool`, TCP nodes (`malleable-repro workers`) for "
        "`cluster` — ships batch rows once per node, and survives killed "
        "workers, stragglers and coordinator restarts without recomputing "
        "cached cells.",
        ["repro.exec.cluster"],
    ),
    "exact.md": (
        "repro.lp.exact — the exact-OPT engine",
        "Branch-and-bound over completion suffixes: closed-form density "
        "floors and exact LPs on the surviving leaves replace the `n!` "
        "ordering enumeration behind `repro.lp.optimal`.  Also home of the "
        "one ordered-LP solver rule, `solve_ordered_lps`: the lockstep "
        "kernel up to 6 tasks, one block-diagonal HiGHS solve per stack above.",
        ["repro.lp.exact"],
    ),
    "facade.md": (
        "repro.api — the stable facade",
        "The typed request/reply messages shared by the wire protocol, the "
        "service client and in-process callers — one schema, three "
        "transports — plus the lazily re-exported blessed entry points of "
        "the top-level `repro` package.",
        ["repro.api"],
    ),
    "service.md": (
        "repro.service — the online scheduling service",
        "`malleable-repro serve`: an asyncio TCP server speaking "
        "newline-delimited JSON (with HTTP `/metrics` and `/health` on the "
        "same port) over an **incrementally advanced** live simulation — "
        "queries resume from the current virtual time instead of replaying "
        "history from `t = 0`.",
        ["repro.service.state", "repro.service.server", "repro.service.client",
         "repro.service.loadgen", "repro.service.ratelimit", "repro.service.metrics",
         "repro.service.protocol"],
    ),
    "journal.md": (
        "repro.service.journal — durable service state",
        "The write-ahead journal behind `malleable-repro serve "
        "--journal-dir`: CRC-framed append-only segments, atomic snapshots "
        "of the live system, snapshot-plus-suffix recovery through the "
        "incremental engine, and the persisted idempotency table that makes "
        "client retries exactly-once across a server crash.",
        ["repro.service.journal"],
    ),
    "batch.md": (
        "repro.batch — vectorized substrate",
        "Struct-of-arrays batches and the padded-batch NumPy kernels every "
        "execution backend runs, including the batched discrete-event "
        "simulation engine.",
        ["repro.core.batch", "repro.batch.kernels", "repro.batch.sim_kernels",
         "repro.batch.cache"],
    ),
    "lp.md": (
        "repro.lp — ordered-relaxation LPs",
        "The Corollary 1 linear-programming layer: the fixed-ordering "
        "formulation and its scalar HiGHS reference solve, and the batched "
        "subsystem that assembles a whole `InstanceBatch` of LPs and solves "
        "them by one size rule — the in-repo lockstep simplex kernel up to 6 "
        "tasks, one block-diagonal HiGHS solve per stack above.",
        ["repro.lp.formulation", "repro.lp.interface", "repro.lp.batch",
         "repro.lp.simplex", "repro.lp.scipy_backend"],
    ),
    "scenarios.md": (
        "repro.scenarios — declarative sweeps",
        "The scenario engine: TOML-loadable specs, deterministic grid "
        "expansion, arrival/weight families, the streaming trace reader, "
        "the backend-agnostic sweep runner and the JSON-lines results store.",
        ["repro.scenarios.spec", "repro.scenarios.grid", "repro.scenarios.families",
         "repro.scenarios.stream", "repro.scenarios.runner", "repro.scenarios.store",
         "repro.scenarios.registry"],
    ),
}

_ROLE = re.compile(r":(?:class|func|meth|mod|data|attr|exc|obj):`(~?)([^`]+)`")
_DOUBLE_BACKTICK = re.compile(r"``([^`]+)``")


def _replace_role(match: re.Match) -> str:
    tilde, target = match.groups()
    return f"`{target.rsplit('.', 1)[-1]}`" if tilde else f"`{target}`"


def clean_docstring(doc: str) -> str:
    """Normalise a reST-flavoured docstring into readable Markdown."""
    doc = inspect.cleandoc(doc)
    doc = _ROLE.sub(_replace_role, doc)
    doc = _DOUBLE_BACKTICK.sub(r"`\1`", doc)
    # NumPy-style section underlines ("Examples\n--------") would otherwise
    # render as huge Markdown setext headings; turn them into bold labels.
    raw = doc.split("\n")
    lines: list[str] = []
    skip = False
    for i, line in enumerate(raw):
        if skip:
            skip = False
            continue
        nxt = raw[i + 1] if i + 1 < len(raw) else ""
        if line.strip() and set(nxt.strip()) == {"-"} and len(nxt.strip()) >= 3:
            lines.append(f"**{line.strip()}**")
            skip = True
        else:
            lines.append(line)
    out: list[str] = []
    in_doctest = False
    for line in lines:
        stripped = line.strip()
        is_doctest = stripped.startswith(">>>") or (in_doctest and stripped.startswith("..."))
        if is_doctest and not in_doctest:
            out.append("")
            out.append("```python")
            in_doctest = True
        elif in_doctest and not is_doctest and stripped and not stripped.startswith(">>>"):
            # First non-doctest line after a doctest block: expected output
            # stays inside the fence; a blank line closes it below.
            pass
        if in_doctest and not stripped:
            out.append("```")
            out.append("")
            in_doctest = False
            continue
        out.append(line if in_doctest else line)
    if in_doctest:
        out.append("```")
    # Indented literal blocks introduced by `::` render fine as Markdown code
    # only when fenced; keep them as-is (mkdocs treats 4-space indents as code).
    return "\n".join(out).strip() + "\n"


def format_signature(name: str, obj: object) -> str:
    try:
        sig = str(inspect.signature(obj))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        sig = "(...)"
    return f"{name}{sig}"


def render_module(module_name: str) -> str:
    module = importlib.import_module(module_name)
    parts = [f"## `{module_name}`", ""]
    if module.__doc__:
        parts.append(clean_docstring(module.__doc__))
        parts.append("")
    public = list(getattr(module, "__all__", []))
    for name in public:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            parts.append(f"### class `{format_signature(name, obj)}`")
            parts.append("")
            if obj.__doc__:
                parts.append(clean_docstring(obj.__doc__))
                parts.append("")
            for attr_name, attr in sorted(vars(obj).items()):
                if attr_name.startswith("_"):
                    continue
                target = attr
                kind = "method"
                if isinstance(attr, property):
                    target = attr.fget
                    kind = "property"
                elif isinstance(attr, (classmethod, staticmethod)):
                    target = attr.__func__
                elif not callable(attr):
                    continue
                if target is None or not target.__doc__:
                    continue
                if kind == "property":
                    parts.append(f"#### `{name}.{attr_name}` *(property)*")
                else:
                    parts.append(f"#### `{name}.{format_signature(attr_name, target)}`")
                parts.append("")
                parts.append(clean_docstring(target.__doc__))
                parts.append("")
        elif callable(obj):
            parts.append(f"### `{format_signature(name, obj)}`")
            parts.append("")
            if obj.__doc__:
                parts.append(clean_docstring(obj.__doc__))
                parts.append("")
        else:
            parts.append(f"### `{name}`")
            parts.append("")
            # Long reprs (e.g. the scenario registry, whose entries embed
            # machine-local paths) would make the page unreadable and the
            # --check drift-detection machine-dependent; summarise instead.
            value_repr = repr(obj)
            if len(value_repr) <= 200:
                parts.append(f"Module-level value: `{name} = {value_repr}`")
            elif isinstance(obj, dict):
                keys = ", ".join(repr(k) for k in obj)
                parts.append(f"`{name}`: mapping with keys {keys}.")
            else:
                parts.append(f"`{name}`: {type(obj).__name__} value (see the module source).")
            parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def render_page(title: str, intro: str, module_names: list[str]) -> str:
    parts = [
        "<!-- Generated by tools/gen_api_docs.py — do not edit by hand. -->",
        "",
        f"# {title}",
        "",
        intro,
        "",
    ]
    for module_name in module_names:
        parts.append(render_module(module_name))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true", help="fail if committed pages drift")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    API_DIR.mkdir(parents=True, exist_ok=True)
    drift = []
    for filename, (title, intro, modules) in PAGES.items():
        content = render_page(title, intro, modules)
        path = API_DIR / filename
        if args.check:
            existing = path.read_text(encoding="utf-8") if path.is_file() else None
            if existing != content:
                drift.append(filename)
        else:
            path.write_text(content, encoding="utf-8")
            print(f"wrote {path.relative_to(REPO_ROOT)}")
    if drift:
        print(
            "API docs drift from docstrings: "
            + ", ".join(f"docs/api/{name}" for name in drift)
            + "\nre-run: PYTHONPATH=src python tools/gen_api_docs.py",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print("docs/api pages match the docstrings")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
