"""Record the seed-0 golden files the verdict gates compare against.

    python3 perfbench/record_golden.py

Run once, at the commit that introduced the benchmark; a later commit must
reproduce these answers, so do not re-record them to make a gate pass.
"""

import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gates  # noqa: E402
import workloads  # noqa: E402


def main():
    workloads.GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        out = work / "battery.json"
        code = workloads._quiet_cli(
            ["verify", "all", "--seed", "0", "--json", str(out)], io.StringIO())
        if code != 0:
            raise SystemExit(f"verify all exited {code}")
        battery = gates.battery_checks(json.loads(out.read_text()))
        jobs, _ = workloads.rule_check_jobs(0, work)
        payloads = {}
        for job in jobs:
            code = workloads._quiet_cli(job["argv"], sys.stderr)
            if code not in (0, 1):
                raise SystemExit(f"{job['id']} exited {code}")
            payloads[job["id"]] = json.loads(job["out"].read_text())
    for name, data in (("battery_seed0.json", battery),
                       ("rule_check_seed0.json", payloads)):
        (workloads.GOLDEN / name).write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
