"""Fresh-interpreter probe, started by run.py as a child process.

    python3 probe.py <src dir> <config> <command> [<out dir>]

Times what a CLI user pays before any work starts: importing pmed.cli and
parse_config on the config, which builds the initial data.  With an out
dir it then runs the command once, so the reported peak RSS covers set-up
plus one run.  Prints one JSON object.
"""

import json
import resource
import sys
import time


def main(argv):
    src, config, command = argv[:3]
    out = argv[3] if len(argv) > 3 else None
    with open(config) as fh:
        text = fh.read()
    sys.path.insert(0, src)
    start = time.perf_counter()
    import pmed.cli

    pmed.cli.parse_config(text, command)
    setup_s = time.perf_counter() - start
    code = pmed.cli.main([command, "--config", config, "--out", out]) if out else None
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": setup_s, "exit_code": code, "peak_rss_mb": rss_mb}))


if __name__ == "__main__":
    main(sys.argv[1:])
