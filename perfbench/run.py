#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload stream-sweep --seed 1 --seconds 10 --trace 0

Every file the build and the run write stays under .bench_build/ in the
working directory: the Go build and module caches, temporary files, the
binary, journals and trace dumps. The exit code is the benchmark's; a
failed build exits non-zero without printing a result.
"""
import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for name, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                      ("TMPDIR", "tmp"), ("HOME", "home"), ("XDG_CONFIG_HOME", "config"),
                      ("XDG_CACHE_HOME", "cache")]:
        env[name] = os.path.join(build, sub)
        os.makedirs(env[name], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["GOWORK"] = "off"
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        return built.returncode or 1
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env)
    # A terminated wrapper must not leave the benchmark running.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, frame: proc.terminate())
    code = proc.wait()
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
