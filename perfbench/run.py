#!/usr/bin/env python3
"""Build the benchmark program from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|toy]

Run it from the root of a checkout. emis_perfbench and libemis are built with
CMake (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; its work files (packed graphs, span
files) go to .../perfbench-work. Build output goes to stderr, so the last
line on stdout is the benchmark's result JSON. Exits non-zero without a result
when the checkout has no emis sources or the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

# Wall-clock cap on one benchmark run; a run that needs longer is a failure.
RUN_TIMEOUT_S = 170


def target_dir(root: Path) -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else root / target


def build(bench_dir: Path, build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return build_dir / "emis_perfbench"


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no emis sources (src/CMakeLists.txt) next to "
              f"{bench_dir.name}/", file=sys.stderr)
        return 2
    target = target_dir(root)
    try:
        program = build(bench_dir, target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run([str(program), *sys.argv[1:], "--work-dir", str(work)],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: emis_perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
