"""Spans around the calls into each pathscore module, installed from outside.

The tracer replaces public functions by timing wrappers in every loaded
pathscore module that holds them (the CLI and the estimator import names
directly), wraps ``TableScoreProvider.score`` on its class, and wraps the
coefficient callables of every model that ``make_model`` builds. Each call
records one span: name, start, end, parent span and request. Spans stay in
memory and are written out as JSON lines when the round finishes.

A public name that no longer exists is reported as absent, and the metrics
built from it are left out, instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
import time
import tracemalloc

# (module, attribute, span name). A span's layer is the part of its name
# before the dot; table I/O is counted with the CLI that does it.
FUNCTIONS = (
    ("paths", "sample_brownian_block", "paths.noise"),
    ("paths", "simulate_variation_batch", "paths.simulate"),
    ("paths", "euler_state_batch", "paths.euler"),
    ("malliavin", "compute_bundle_batch", "malliavin.bundle"),
    ("malliavin", "skorokhod_batch", "malliavin.skorokhod"),
    ("estimator", "harvest_paths", "estimator.harvest"),
    ("estimator", "estimate_score", "estimator.estimate"),
    ("estimator", "reverse_time_sample", "estimator.reverse"),
    ("estimator", "analytic_score_linear", "estimator.analytic"),
    ("estimator", "write_score_csv", "cli.table_write"),
    ("estimator", "read_score_csv", "cli.table_read"),
    ("config", "load_config", "cli.config"),
    ("models", "make_model", "models.build"),
)
METHODS = (("estimator", "TableScoreProvider", "score", "estimator.provider"),)
COEFFICIENTS = ("b", "sigma", "db", "dsigma", "d2b", "d2sigma")
# Peak of the memory allocated within these spans, from tracemalloc. It runs
# only inside them: switched on for a whole round it slows the per-path
# Generator set-up of the noise layer several-fold.
PEAK_SPANS = ("paths.simulate", "malliavin.skorokhod")
LAYERS = ("cli", "estimator", "paths", "malliavin", "models")

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        # [name, start, end, parent, request]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request_id = -1
        self.absent: list[str] = []  # spans and counters that could not be recorded
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.originals: list[tuple] = []
        self.installed: set[str] = set()

    # ------------------------------------------------------------ wrapping

    def _span(self, fn, name, hook=None):
        spans, stack = self.spans, self.stack
        peak = name in PEAK_SPANS
        sig = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(idx)
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if peak:
                used = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), used)
            if hook is not None:
                self._hook(hook, sig, args, kwargs, out)
            return out

        return wrapper

    def _hook(self, hook, sig, args, kwargs, out):
        try:
            bound = sig.bind(*args, **kwargs).arguments
            for key, value in hook(bound, out).items():
                self.counts[key] = self.counts.get(key, 0) + value
        except Exception as exc:  # a renamed argument or field must not fail the run
            label = f"{hook.__name__}: {type(exc).__name__}: {exc}"
            if label not in self.absent:
                self.absent.append(label)

    def _wrap_model(self, make_model):
        def build(*args, **kwargs):
            model = make_model(*args, **kwargs)
            coeffs = {
                f: self._span(getattr(model, f), "models.coeff")
                for f in COEFFICIENTS
                if callable(getattr(model, f, None))
            }
            return dataclasses.replace(model, **coeffs)

        return build

    def install(self) -> None:
        hooks = {
            "paths.noise": _noise_counts,
            "paths.simulate": _simulate_counts,
            "estimator.harvest": _harvest_counts,
            "estimator.estimate": _estimate_counts,
        }
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("pathscore")]
        for mod_name, attr, span in FUNCTIONS:
            orig = _lookup(mod_name, attr)
            if orig is None:
                self.absent.append(f"{span} (pathscore.{mod_name}.{attr})")
                continue
            inner = self._wrap_model(orig) if span == "models.build" else orig
            wrapped = self._span(inner, span, hooks.get(span))
            self.installed.add(span)
            if span == "models.build":
                self.installed.add("models.coeff")
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self.originals.append((m, key, orig))
        for mod_name, cls_name, attr, span in METHODS:
            cls = _lookup(mod_name, cls_name)
            orig = getattr(cls, attr, None)
            if orig is None:
                self.absent.append(f"{span} (pathscore.{mod_name}.{cls_name}.{attr})")
                continue
            setattr(cls, attr, self._span(orig, span))
            self.originals.append((cls, attr, orig))
            self.installed.add(span)

    def request(self, kind: str, fn, *args):
        """Run one request under its own top-level span ``cli.<kind>``."""
        self.request_id += 1
        self.installed.add(f"cli.{kind}")
        return self._span(fn, f"cli.{kind}")(*args)

    # ------------------------------------------------------------ results

    def finish(self, path: str) -> dict:
        for owner, key, orig in self.originals:
            setattr(owner, key, orig)
        with open(path, "a") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, req]) + "\n")
        return self.metrics()

    def metrics(self) -> dict:
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(dur)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        # installed spans that never ran read 0; absent ones stay missing
        total = dict.fromkeys(self.installed, 0.0)
        own = dict.fromkeys(self.installed, 0.0)
        calls = dict.fromkeys(self.installed, 0)
        for i, span in enumerate(self.spans):
            total[span[0]] += dur[i]
            own[span[0]] += dur[i] - child[i]
            calls[span[0]] += 1
        count = self.counts.get
        out = {
            "paths.noise_s": total.get("paths.noise"),
            "paths.noise_paths": count("noise_paths"),
            "paths.simulate_s": total.get("paths.simulate"),
            "paths.simulate_path_steps": count("simulate_path_steps"),
            "paths.simulate_peak_mb": self.peaks.get("paths.simulate"),
            "paths.euler_s": total.get("paths.euler"),
            "malliavin.bundle_s": total.get("malliavin.bundle"),
            "malliavin.skorokhod_s": total.get("malliavin.skorokhod"),
            "malliavin.skorokhod_peak_mb": self.peaks.get("malliavin.skorokhod"),
            "estimator.harvest_s": total.get("estimator.harvest"),
            "estimator.harvest_self_s": own.get("estimator.harvest"),
            "estimator.harvest_calls": calls.get("estimator.harvest"),
            "estimator.flagged_points": count("flagged_points"),
            "estimator.reverse_s": total.get("estimator.reverse"),
            "estimator.provider_s": total.get("estimator.provider"),
            "estimator.provider_calls": calls.get("estimator.provider"),
            "estimator.analytic_s": total.get("estimator.analytic"),
            "models.coeff_s": total.get("models.coeff"),
            "models.coeff_calls": calls.get("models.coeff"),
            "cli.table_write_s": total.get("cli.table_write"),
            "cli.table_read_s": total.get("cli.table_read"),
            "cli.tables_written": calls.get("cli.table_write"),
            "trace.spans": len(dur),
        }
        if "estimator.estimate" in total and "estimator.harvest" in total:
            out["estimator.regress_s"] = total["estimator.estimate"] - total["estimator.harvest"]
        if count("attempted_paths"):
            out["estimator.valid_path_ratio"] = count("valid_paths", 0) / count("attempted_paths")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        score = [i for i, span in enumerate(self.spans) if span[0] == "cli.score"]
        if score:
            out["trace.score_coverage"] = sum(child[i] for i in score) / sum(dur[i] for i in score)
        return {k: v for k, v in out.items() if v is not None}


def _lookup(mod_name: str, attr: str):
    try:
        return getattr(importlib.import_module(f"pathscore.{mod_name}"), attr, None)
    except ImportError:
        return None


# Counter hooks: (bound arguments, return value) -> increments.


def _noise_counts(args, out):
    return {"noise_paths": args["n_paths"]}


def _simulate_counts(args, out):
    inc = args["increments"]
    return {"simulate_path_steps": len(inc) * len(inc[0])}


def _harvest_counts(args, out):
    return {"valid_paths": int(out.valid.sum()), "attempted_paths": int(out.valid.size)}


def _estimate_counts(args, out):
    table = out[0] if isinstance(out, tuple) else out
    return {"flagged_points": int(table.flagged.sum())}
