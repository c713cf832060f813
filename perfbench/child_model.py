"""External model for the external-cli workload, speaking aspectra's line protocol.

Reads "PREDICT <n> <p>", a line of column names and n comma-joined rows
from stdin; answers with n prediction lines and flushes; loops until EOF.
The prediction is a fixed smooth nonlinear function of the row, computed
with the standard library only so the child starts quickly:

    f(x) = sum_j c_j x_j + 0.5 x_0 x_1 + tanh(x_2) - 0.25 x_3^2,
    c_j = ((j mod 5) - 2) / 2.
"""

import math
import sys


def predict(values):
    linear = sum(((j % 5) - 2) / 2 * v for j, v in enumerate(values))
    return linear + 0.5 * values[0] * values[1] + math.tanh(values[2]) - 0.25 * values[3] ** 2


def main() -> int:
    stdin, stdout = sys.stdin, sys.stdout
    while True:
        head = stdin.readline()
        if head == "":
            return 0
        parts = head.split()
        if len(parts) != 3 or parts[0] != "PREDICT":
            print(f"bad request header: {head!r}", file=sys.stderr)
            return 2
        n = int(parts[1])
        stdin.readline()  # column names; the model uses positions
        out = []
        for _ in range(n):
            row = [float(tok) for tok in stdin.readline().split(",")]
            out.append(repr(predict(row)))
        stdout.write("\n".join(out) + "\n")
        stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
