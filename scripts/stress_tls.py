"""Developer stress script: differential-check TLS on tricky patterns."""
import sys
import time

from repro import Jrpm
from repro.bytecode import run_program
from repro.minijava import compile_source

CASES = {}


def case(name):
    def wrap(fn):
        CASES[name] = fn
        return fn
    return wrap


def check(name, src):
    prog = compile_source(src)
    oracle = run_program(prog)
    start = time.time()
    rep = Jrpm().run(prog, name=name)
    took = time.time() - start
    ok_seq = rep.sequential.output == oracle.output
    match = rep.outputs_match()
    status = "OK " if (ok_seq and match) else "FAIL"
    print(f"{status} {name}: {took:.1f}s plans={len(rep.plans)} "
          f"speedup={rep.tls_speedup:.2f} viol={rep.breakdown.violations} "
          f"commits={rep.breakdown.commits} "
          f"sync={any(p.sync for p in rep.plans.values())}")
    if not (ok_seq and match):
        print("  oracle:", oracle.output[:8])
        print("  seq:   ", rep.sequential.output[:8])
        print("  tls:   ", rep.tls.output[:8])
    return ok_seq and match


SRC = {}

SRC["serial-chain"] = """
class Main {
    static int main() {
        int[] b = new int[1200];
        b[0] = 1;
        for (int i = 1; i < 1200; i++) { b[i] = b[i-1] * 3 + 1; }
        Sys.printInt(b[1199]);
        return 0;
    }
}
"""

SRC["carried-local"] = """
class Main {
    static int step(int x) { return (x * 5 + 7) % 2048; }
    static int main() {
        int[] a = new int[1500];
        int last = 0;
        for (int i = 0; i < 1500; i++) {
            a[i] = step(i);
            if (a[i] > 2000) { last = a[i]; }
        }
        Sys.printInt(last);
        return last;
    }
}
"""

SRC["float-reduce"] = """
class Main {
    static int main() {
        float[] x = new float[1000];
        for (int i = 0; i < 1000; i++) { x[i] = (float)i * 0.001; }
        float s = 0.0;
        for (int i = 0; i < 1000; i++) { s = s + x[i] * x[i]; }
        Sys.printFloat(s);
        return (int)s;
    }
}
"""

SRC["nested"] = """
class Main {
    static int main() {
        int n = 40;
        int[][] m = new int[n][n];
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < n; j++) {
                m[i][j] = i * j + (i ^ j);
            }
        }
        int t = 0;
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < n; j++) { t += m[i][j]; }
        }
        Sys.printInt(t);
        return t;
    }
}
"""

SRC["alloc-loop"] = """
class Box { int v; Box(int x) { v = x; } }
class Main {
    static int main() {
        int s = 0;
        for (int i = 0; i < 600; i++) {
            Box b = new Box(i * 2);
            s += b.v;
        }
        Sys.printInt(s);
        return s;
    }
}
"""

SRC["sync-method"] = """
class Counter {
    int v;
    synchronized void add(int x) { v = v + x; }
    synchronized int get() { return v; }
}
class Main {
    static int main() {
        Counter c = new Counter();
        int s = 0;
        for (int i = 0; i < 800; i++) {
            c.add(i % 13);
        }
        s = c.get();
        Sys.printInt(s);
        return s;
    }
}
"""

SRC["break-exit"] = """
class Main {
    static int main() {
        int[] a = new int[2000];
        for (int i = 0; i < 2000; i++) { a[i] = (i * 37) % 4096; }
        int found = -1;
        for (int i = 0; i < 2000; i++) {
            if (a[i] == 3885) { found = i; break; }
        }
        Sys.printInt(found);
        return found;
    }
}
"""

SRC["lcg-carried"] = """
class Main {
    static int main() {
        // short carried dependency (seed) + longer body: sync-lock case
        int seed = 12345;
        int hits = 0;
        for (int i = 0; i < 1200; i++) {
            seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF;
            int x = seed % 1000;
            int y = (x * x + 17) % 997;
            int z = (y * 31 + x) % 4096;
            if (z < 2048) { hits++; }
        }
        Sys.printInt(hits);
        Sys.printInt(seed);
        return hits;
    }
}
"""

SRC["resetable"] = """
class Main {
    static int main() {
        int[] bits = new int[4000];
        int pos = 0;
        int acc = 0;
        for (int i = 0; i < 4000; i++) {
            bits[pos] = bits[pos] ^ 1;
            acc += bits[pos];
            pos = pos + 1;
            if (pos >= 3997) { pos = i % 13; }
        }
        Sys.printInt(acc);
        Sys.printInt(pos);
        return acc;
    }
}
"""

SRC["exception-in-loop"] = """
class Main {
    static int main() {
        int[] a = new int[100];
        int s = 0;
        int n = 300;
        for (int i = 0; i < n; i++) {
            s += a[i % 100] + i;
        }
        Sys.printInt(s);
        return s;
    }
}
"""

SRC["print-in-callee"] = """
class Main {
    static int show(int v) { Sys.printInt(v); return v; }
    static int main() {
        int[] a = new int[400];
        for (int i = 0; i < 400; i++) {
            int x = (i * 37) % 101;
            a[i] = x;
            if (i % 40 == 0) { show(x); }
        }
        Sys.printInt(a[399]);
        return 0;
    }
}
"""

SRC["print-in-callee-violating"] = """
class Main {
    // the print follows a load that a less-speculative iteration's
    // late store violates: restarted attempts must drop their prints
    static int show(int v) { Sys.printInt(v); return v; }
    static int main() {
        int[] a = new int[600];
        int[] c = new int[4];
        for (int i = 0; i < 600; i++) {
            if (i % 10 == 0) { show(c[0]); }
            int x = (i * 37) % 101;
            x = (x * x + i) % 4096;
            a[i] = x;
            if (i % 10 == 9) { c[0] = x; }
        }
        Sys.printInt(a[599]);
        return 0;
    }
}
"""


def main():
    names = sys.argv[1:] or list(SRC)
    failures = 0
    for name in names:
        if not check(name, SRC[name]):
            failures += 1
    print("failures:", failures)
    return failures


if __name__ == "__main__":
    sys.exit(main())
