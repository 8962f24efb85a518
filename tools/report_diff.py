"""Usage: python tools/report_diff.py OLD.json NEW.json

One markdown row per differing leaf of two canonical reports: path, old, new, |new - old|.
Exit 1 if a non-float leaf (count, flag, string), key set or list length differs, else 0.
"""

import json
import sys


def walk(old, new, path: str, rows: list) -> bool:
    """Append (path, old, new, |delta|) per differing leaf; False on a non-float change."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            rows.append((f"{path}.keys", sorted(old), sorted(new), ""))
            return False
        return all([walk(old[k], new[k], f"{path}.{k}", rows) for k in sorted(old)])
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            rows.append((f"{path}.length", len(old), len(new), ""))
            return False
        return all([walk(a, b, f"{path}[{i}]", rows) for i, (a, b) in enumerate(zip(old, new))])
    if type(old) is float and type(new) is float:
        if repr(old) != repr(new):
            rows.append((path, old, new, f"{abs(new - old):.1e}"))
        return True
    if type(old) is type(new) and old == new:
        return True
    rows.append((path, old, new, ""))
    return False


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0]) as f_old, open(argv[1]) as f_new:
        rows: list = []
        floats_only = walk(json.load(f_old), json.load(f_new), "$", rows)
    if rows:
        print("| field | old | new | \\|Δ\\| |\n|---|---|---|---|")
    for path, a, b, delta in rows:
        print(f"| `{path}` | {json.dumps(a)} | {json.dumps(b)} | {delta} |")
    return 0 if floats_only else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
