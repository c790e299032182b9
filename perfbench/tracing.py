"""Span tracing at armik's layer boundaries, installed by the benchmark.

Wrappers replace module attributes for the duration of one traced call and
are removed afterwards; nothing under src/ changes. The kernel functions are
wrapped on `armik._kernels.active`, whose module globals `ik_solve_core` uses
to reach its helpers, so a wrapper there sees every call the kernel makes.
This works only on the pure backend: compiled numba kernels call each other
directly.

A span is [name id, start ns, end ns, parent span, request id, result, error
tag]. Spans stay in memory and are written out at the end of the run.
"""

import time

import armik
import armik.cli
import armik.ik_core
import armik.robot
from armik._kernels import active as _K

import workloads

# (module, attribute, span name); order matters only for readability
BOUNDARIES = (
    (workloads, "Transform", "robot.transform"),
    (workloads, "IkRequest", "ik_core.request"),
    (workloads, "solve", "ik_core.solve"),
    (workloads, "cli_main", "cli.main"),
    (armik.cli, "_read_input", "cli.read_input"),
    (armik.cli, "_parse_pose", "cli.parse_pose"),
    (armik.cli, "Transform", "robot.transform"),
    (armik.cli, "IkRequest", "ik_core.request"),
    (armik.cli, "solve", "ik_core.solve"),
    (armik.cli, "_write_output", "cli.write_output"),
    (armik.cli, "_fmt", "cli.format"),
    (armik.robot, "check_rotation", "robot.check_rotation"),
    (armik.ik_core, "reduce_pose", "arm_angle.reduce_pose"),
    (armik.ik_core, "_assemble", "ik_core.assemble"),
    (_K, "ik_solve_core", "kernels.ik_solve_core"),
    (_K, "solve_quartic_core", "quartic.solve_quartic_core"),
    (_K, "fk_chain", "kernels.fk_chain"),
    (_K, "arm_dihedral", "kernels.arm_dihedral"),
    (_K, "rot_geodesic", "kernels.rot_geodesic"),
)
# _fmt calls itself through its module global once per JSON value; only the
# outermost call gets a span
RECURSIVE = {"cli.format"}

# span name -> per-layer metric that receives its self time
LAYER_METRIC = {
    "robot.transform": "robot.validate_us",
    "robot.check_rotation": "robot.validate_us",
    "ik_core.request": "ik_core.request_us",
    "ik_core.solve": "ik_core.solve_self_us",
    "arm_angle.reduce_pose": "arm_angle.reduce_pose_us",
    "quartic.solve_quartic_core": "quartic.roots_us",
    "kernels.ik_solve_core": "ik_core.kernel_self_us",
    "ik_core.assemble": "ik_core.assemble_us",
    "kernels.fk_chain": "kernels.fk_chain_us",
    "kernels.arm_dihedral": "kernels.arm_dihedral_us",
    "kernels.rot_geodesic": "kernels.rot_geodesic_us",
    "cli.main": "cli.self_us",
    "cli.read_input": "cli.read_us",
    "cli.parse_pose": "cli.parse_pose_us",
    "cli.format": "cli.format_us",
    "cli.write_output": "cli.write_us",
}
LAYER_METRICS = tuple(dict.fromkeys(LAYER_METRIC.values()))
ROOT_SPAN = "call"


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.request = -1
        self.keep = False  # keep return values (for the counting pass)
        self._patches = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1, tracer.request, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[6] = getattr(e, "tag", type(e).__name__)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if tracer.keep:
                rec[5] = out
            return out

        return traced

    def prepare(self):
        """Build the wrappers once; install() and uninstall() swap them in."""
        self._patches = []
        for mod, attr, name in BOUNDARIES:
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig)
            if name in RECURSIVE:
                wrapped = _outermost(mod, attr, orig, wrapped)
            self._patches.append((mod, attr, orig, wrapped))

    def install(self):
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def self_ns(self):
        """Self time of every span: its duration minus its children's."""
        spans = self.spans
        own = [rec[2] - rec[1] for rec in spans]
        out = list(own)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                out[rec[3]] -= own[i]
        return out

    def write(self, path):
        with open(path, "w") as f:
            f.write("span,parent,request,name,start_ns,end_ns,error\n")
            for i, rec in enumerate(self.spans):
                name, err = self.names[rec[0]], rec[6] or ""
                f.write(f"{i},{rec[3]},{rec[4]},{name},{rec[1]},{rec[2]},{err}\n")


def _outermost(mod, attr, orig, wrapped):
    # restore the original for the duration of the call so nested calls
    # through the module global skip the wrapper
    def outer(*args, **kwargs):
        setattr(mod, attr, orig)
        try:
            return wrapped(*args, **kwargs)
        finally:
            setattr(mod, attr, outer)

    return outer


def layer_times(tracer, factor):
    """Total self ns per layer metric, plus the root spans' own share; the
    spans of request i are scaled by factor[i]."""
    self_ns = tracer.self_ns()
    totals = dict.fromkeys(LAYER_METRICS, 0.0)
    root_self = 0.0
    for rec, ns in zip(tracer.spans, self_ns):
        name = tracer.names[rec[0]]
        if name == ROOT_SPAN:
            root_self += ns * factor[rec[4]]
        else:
            totals[LAYER_METRIC[name]] += ns * factor[rec[4]]
    return totals, root_self


def counts(tracer, n_requests):
    """Exact work counts over the spans of requests 0..n_requests-1.

    Needs the spans recorded with tracer.keep set, so that the kernel and
    _assemble return values are available.
    """
    names = tracer.names
    solves = fk = verified = roots = raised = accepted = 0
    reasons = dict.fromkeys(armik.REASON_NAMES.values(), 0)
    for rec in tracer.spans:
        if rec[4] >= n_requests:
            continue
        name = names[rec[0]]
        if name == "ik_core.solve":
            solves += 1
            raised += rec[6] is not None
        elif name == "kernels.fk_chain":
            fk += 1
            parent = tracer.spans[rec[3]] if rec[3] >= 0 else None
            verified += parent is not None and names[parent[0]] == "kernels.ik_solve_core"
        elif name == "quartic.solve_quartic_core" and rec[5] is not None:
            roots += int(rec[5][0])
        elif name == "ik_core.assemble" and rec[5] is not None:
            accepted += len(rec[5].branches)
            for r in rec[5].rejected:
                reasons[r.reason] += 1
    return {
        "solves": solves,
        "fk_chain_calls": fk,
        "verified_leaves": verified,
        "accepted_branches": accepted,
        "real_roots": roots,
        "raised": raised,
        "reject": reasons,
    }


def release_results(tracer):
    for rec in tracer.spans:
        rec[5] = None
