"""A fresh process imports no numpy until it reads an array.

`import armik`, the built-in parameters, a `Transform` from nested lists, a
request, a solve, `armik ik` on a matrix pose, `armik fk` and `armik
arm-angle` all run on floats. `armik ik` on a quaternion pose imports numpy
for the norm, but not the oracle module `armik.verify`. The
arrays of `JointConfig.q`, `SolutionSet.joints_array()`,
`Transform.rotation` and `RobotParams.mdh` are built when first read, with
the same types, values and write flags as before.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = r"""
import contextlib, io, json, sys


def no_numpy(step):
    assert "numpy" not in sys.modules, f"numpy imported by {step}"


import armik
import armik.cli
no_numpy("import armik")
params = armik.default_params()
no_numpy("default_params()")
q0 = [0.3, -0.7, 1.1, -1.9, 0.4, 0.9, -2.2]
fk = armik.forward_kinematics(params, q0)
rows = [list(fk._rot[k:k + 3]) for k in (0, 3, 6)]
pos = list(fk._pos)
psi = armik.arm_angle(params, q0)
pose = armik.Transform(rows, pos)
no_numpy("Transform")
req = armik.IkRequest(pose=pose, psi=psi, params=params)
no_numpy("IkRequest")
res = armik.solve(req)
assert res.branches
no_numpy("solve")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = armik.cli.main(["ik", "--json", json.dumps({"position": pos, "rotation": rows, "psi": psi})])
assert code == 0 and json.loads(out.getvalue())["count"] == len(res.branches)
no_numpy("armik ik")
for cmd in ("fk", "arm-angle"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = armik.cli.main([cmd, "--json", json.dumps({"joints": q0})])
    assert code == 0 and json.loads(out.getvalue())["psi"] == psi
    no_numpy("armik " + cmd)

# a quaternion pose needs numpy for its norm, and never the oracle module
(a, b, c), (d, e, f), (g, h, i) = rows
w = 0.5 * (1.0 + a + e + i) ** 0.5
quat = [w, (h - f) / (4 * w), (c - g) / (4 * w), (d - b) / (4 * w)]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = armik.cli.main(["ik", "--json", json.dumps({"position": pos, "rotation": quat, "psi": psi})])
assert code == 0 and json.loads(out.getvalue())["count"] == len(res.branches)
assert "numpy" in sys.modules and "armik.verify" not in sys.modules

import numpy as np

b = res.branches[0]
q = b.joints.q
assert type(q) is np.ndarray and q.dtype == np.float64 and q.shape == (7,)
assert q.flags.writeable and q.tolist() == list(b.joints._q)
assert b.joints.q is q
J = res.joints_array()
assert type(J) is np.ndarray and J.shape == (len(res.branches), 7) and J.flags.writeable
assert J.tolist() == [list(br.joints._q) for br in res.branches]
R = pose.rotation
assert type(R) is np.ndarray and R.shape == (3, 3) and not R.flags.writeable
assert R.tolist() == rows and pose.translation.tolist() == pos
mdh = params.mdh
assert type(mdh) is np.ndarray and mdh.shape == (7, 4) and not mdh.flags.writeable
assert mdh.tolist() == params.to_dict()["mdh"] and params.mdh is mdh
delta = params.delta
assert type(delta) is np.ndarray and delta.flags.writeable and delta.tolist() == list(params._delta)
print("ok")
"""


def test_import_and_solve_import_no_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
