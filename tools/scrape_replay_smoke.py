#!/usr/bin/env python3
"""End-to-end smoke for the live scrape endpoint: launch crdiscover in
paced --append_batch replay with --serve_metrics on an ephemeral port,
scrape /metrics twice while the replay is still running (the first scrape
polls until the windowed batch-latency series is published), validate both
payloads as Prometheus exposition (validate_prom.py), and require the
tenant-labeled batch-latency series plus the windowed quantile summary.

Usage: tools/scrape_replay_smoke.py CRDISCOVER_BIN INPUT.csv
Stdlib only; exit 0 on success, 1 with a diagnostic otherwise.
"""

import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_prom  # noqa: E402


def fail(message):
    print(f"scrape_replay_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_port_file(path, process, timeout_seconds=20.0):
    deadline = time.monotonic() + timeout_seconds
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"crdiscover exited early with code {process.returncode}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    fail("timed out waiting for the serve_metrics port file")


def scrape(port):
    url = f"http://127.0.0.1:{port}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            content_type = response.headers.get("Content-Type", "")
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as error:
        fail(f"GET {url}: {error}")
    if "version=0.0.4" not in content_type:
        fail(f"unexpected Content-Type {content_type!r}")
    if not body:
        fail("empty scrape body")
    return body


def has_series(body, name):
    return any(line.startswith((name + "{", name + " "))
               for line in body.split("\n"))


def first_scrape(port, process, series, timeout_seconds=20.0):
    """Scrapes until `series` appears. The port file can land before the
    replay's first window advance, which is what publishes the windowed
    series, so one early scrape may legitimately miss it."""
    deadline = time.monotonic() + timeout_seconds
    while True:
        if process.poll() is not None:
            fail(f"replay finished before {series} appeared in a scrape")
        body = scrape(port)
        if has_series(body, series):
            return body
        if time.monotonic() >= deadline:
            fail(f"timed out waiting for {series} in a scrape")
        time.sleep(0.05)


def validate(body, label):
    with tempfile.NamedTemporaryFile(
            "w", suffix=".txt", delete=False, encoding="utf-8") as handle:
        handle.write(body)
        path = handle.name
    try:
        argv = [
            "validate_prom.py", path,
            "--require-series", "incr_batch_seconds_bucket",
            "--require-series", "incr_batch_seconds_window",
            "--require-series", "obs_window_span_seconds",
            "--require-label", "tenant=smoke",
        ]
        old_argv = sys.argv
        sys.argv = argv
        try:
            validate_prom.main()
        except SystemExit as stop:
            if stop.code not in (0, None):
                fail(f"{label}: validate_prom rejected the payload")
        finally:
            sys.argv = old_argv
    finally:
        os.unlink(path)


def main():
    if len(sys.argv) != 3:
        fail("usage: scrape_replay_smoke.py CRDISCOVER_BIN INPUT.csv")
    binary, input_csv = sys.argv[1], sys.argv[2]

    with tempfile.TemporaryDirectory() as tmpdir:
        port_file = os.path.join(tmpdir, "port.txt")
        # Slow pacing (40 ms/batch over >= 35 batches, ~1.5 s+ total) so
        # both scrapes land mid-replay even on a loaded CI machine.
        command = [
            binary,
            f"--input={input_csv}",
            "--append_batch=16",
            "--batch_pause_ms=40",
            "--metrics_every=2",
            "--serve_metrics=0",
            f"--serve_metrics_port_file={port_file}",
            "--tenant=smoke",
        ]
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            port = wait_for_port_file(port_file, process)
            first = first_scrape(port, process, "incr_batch_seconds_window")
            time.sleep(0.3)  # several batches and a window advance apart
            second = scrape(port)
            mid_flight = process.poll() is None
            stdout, stderr = process.communicate(timeout=120)
        except Exception:
            process.kill()
            raise

    if process.returncode != 0:
        fail(f"crdiscover exited {process.returncode}; stderr:\n{stderr}")
    if "cross-check vs from-scratch: identical" not in stdout:
        fail(f"replay cross-check missing/failed; stdout:\n{stdout}")
    if not mid_flight:
        fail("replay finished before the second scrape; increase pacing")

    validate(first, "first scrape")
    validate(second, "second scrape")

    # The windows must actually be live: the replay advances every 2
    # batches, so by the second scrape the span gauge is positive.
    def window_span(body):
        for line in body.split("\n"):
            if line.startswith("obs_window_span_seconds "):
                return float(line.split()[1])
        return None

    span = window_span(second)
    if span is None or span <= 0.0:
        fail(f"second scrape has no live window (span={span})")

    print("scrape_replay_smoke: OK: two mid-replay scrapes validated, "
          f"window span {span:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
