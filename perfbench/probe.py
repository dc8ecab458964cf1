"""Set-up probe, run in a fresh interpreter: import pbw from <root>/src and
parse the six benchmark tables; print the seconds that took, then the
median time of the speed reference kernel run just after."""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    root = Path(sys.argv[1])
    tables = sorted((Path(__file__).resolve().parent / "tables").glob("*.lie"))
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import pbw
    for path in tables:
        pbw.parse_presentation(path.read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - t0
    if Path(pbw.__file__).resolve().parent != (root / "src" / "pbw").resolve():
        sys.exit(f"imported pbw from {pbw.__file__}, not from {root / 'src'}")
    import speed  # only now, so its imports do not shorten pbw's
    print(repr(elapsed), repr(sorted(speed.sample() for _ in range(5))[2]))
