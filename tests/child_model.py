"""Tiny external model for subprocess-protocol tests.

Speaks the batched line protocol: reads "PREDICT <n> <p>", a header line,
then n comma-joined rows; answers with n prediction lines. Loops until EOF.

Usage: python3 child_model.py MODE [PATH]
  sum       predict the row sum
  first     echo column 1
  constant  always 3.25
  garbage   answer "not-a-number" lines
  garbage-first  answer the first batch's first row with "oops", then
            row sums for every other row of every batch
  short     answer the first batch's first n-1 rows with row sums, then exit 0
  die       exit 3 without answering
  linger    predict the row sum, but ignore EOF and keep running
  once      predict the row sum for one batch, then exit 0
  record    predict the row sum, and append every byte read to PATH
  stream    predict the row sum, answering and flushing each row as soon
            as it is read
  slow      predict the row sum after a pause of SLOW_S per batch, and exit
            0 a pause after EOF
  partial-then-garbage  read a batch's first row only, answer it with the
            row sum and then "garbage", and sleep without reading more
"""

import sys
import time

SLOW_S = 0.2


def main() -> int:
    mode = sys.argv[1]
    # unbuffered, so the file holds every byte read by the time the child exits
    record = open(sys.argv[2], "ab", buffering=0) if mode == "record" else None

    def readline():
        if record is None:
            return sys.stdin.readline()
        raw = sys.stdin.buffer.readline()
        record.write(raw)
        return raw.decode()

    batch = 0
    while True:
        head = readline()
        if head == "":
            if mode == "linger":
                time.sleep(60)
            if mode == "slow":
                time.sleep(SLOW_S)
            return 0
        parts = head.split()
        assert parts[0] == "PREDICT", head
        n = int(parts[1])
        readline()  # column names, unused here
        if mode == "stream":
            for _ in range(n):
                print(repr(sum(float(tok) for tok in readline().split(","))), flush=True)
            continue
        if mode == "partial-then-garbage":
            row = readline()
            print(repr(sum(float(tok) for tok in row.split(","))))
            print("garbage", flush=True)
            time.sleep(60)  # the rest of the request stays unread
            return 0
        rows = [readline() for _ in range(n)]
        if mode == "die":
            return 3
        if mode == "slow":
            time.sleep(SLOW_S)
        batch += 1
        for i, line in enumerate(rows):
            if mode == "short" and i == n - 1:
                break
            if mode == "garbage":
                print("not-a-number")
                continue
            if mode == "garbage-first" and batch == 1 and i == 0:
                print("oops")
                continue
            values = [float(tok) for tok in line.strip().split(",")]
            if mode in ("sum", "garbage-first", "linger", "record", "short", "once", "slow"):
                print(repr(sum(values)))
            elif mode == "first":
                print(repr(values[0]))
            elif mode == "constant":
                print("3.25")
            else:
                raise SystemExit(f"unknown mode {mode}")
        sys.stdout.flush()
        if mode in ("short", "once"):
            return 0


if __name__ == "__main__":
    sys.exit(main())
