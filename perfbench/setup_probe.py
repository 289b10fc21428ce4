"""Set-up probe for an in-process workload: import tadic, run one warm-up op, print "ready".

    python3 perfbench/setup_probe.py <workload> <seed>

The runner times this process from its start to the "ready" line.  The
warm-up op uses op index -1, which the timed loop never uses.  Exits 1
without printing "ready" if the warm-up op fails its checks.
"""

import sys

import layers


def main(name, seed):
    layers.use_checkout_source()
    import workloads  # needs the checkout's sources on the path

    w = workloads.WORKLOADS[name]
    api = layers.Api()
    fails = w.op(api, w.prepare(api, seed, -1, None))
    if fails:
        print("warm-up op failed: %s" % "; ".join(fails), file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
