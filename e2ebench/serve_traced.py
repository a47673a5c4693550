"""``repro serve`` with layer spans recorded, for traced service-mixed runs.

    python3 e2ebench/serve_traced.py PREFIX serve --data-dir DIR ...

Installs the :mod:`layers` wrappers, runs ``repro``'s own command-line
entry point with the remaining arguments, and when the server has
drained writes ``PREFIX.summary.json`` (per-function totals plus the
synthesis cache sizes) and ``PREFIX.spans.jsonl`` (the spans).
"""

from __future__ import annotations

import json
import sys

import layers


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    import repro.__main__ as cli
    from repro.core import synthesis_cache_sizes

    recorder = layers.Recorder()
    layers.install(recorder)
    code = cli.main(argv)
    summary = recorder.summary()
    summary["cache_entries"] = sum(synthesis_cache_sizes().values())
    with open(f"{prefix}.summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    recorder.write_spans(f"{prefix}.spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
