"""Shared table of CLI invocations pinned by golden files.

Each entry is (golden file name, argv, expected exit code); stdout must
match the golden bytes exactly.
"""

from conftest import FIXTURES


def fix(name):
    return str(FIXTURES / f"{name}.lie")


GOLDEN_CASES = [
    ("cells_n4.txt", ["cells", "--n", "4"], 0),
    ("cells_n3.txt", ["cells", "--n", "3"], 0),
    ("cells_n5_json.txt", ["cells", "--n", "5", "--enumerate", "--json"], 0),
    ("check_sl2.txt", ["check", fix("sl2")], 0),
    ("check_bad.txt", ["check", fix("bad")], 1),
    ("check_bad_json.txt", ["check", fix("bad"), "--json"], 1),
    ("check_f42_json.txt", ["check", fix("f42"), "--json"], 0),
    ("normalize_f32.txt", ["normalize", fix("f32"), "-e", "c b a"], 0),
    ("normalize_f32_rightmost.txt",
     ["normalize", fix("f32"), "-e", "c b a", "--strategy", "rightmost"], 0),
    ("normalize_sl2_json.txt", ["normalize", fix("sl2"), "-e", "f e", "--json"], 0),
    ("confluence_f32.txt", ["confluence", fix("f32"), "--max-len", "3"], 0),
    ("confluence_bad.txt", ["confluence", fix("bad"), "--max-len", "3"], 1),
    ("confluence_f32_json.txt",
     ["confluence", fix("f32"), "--max-len", "3", "--json"], 0),
    ("confluence_bad_json.txt",
     ["confluence", fix("bad"), "--max-len", "3", "--json"], 1),
    ("holonomy_f32_hex.txt",
     ["holonomy", fix("f32"), "-w", "c b a", "--loop", "1 2 1 2 1 2"], 0),
    ("holonomy_bad_hex.txt",
     ["holonomy", fix("bad"), "-w", "c b a", "--loop", "1 2 1 2 1 2"], 1),
    ("holonomy_f42_random.txt",
     ["holonomy", fix("f42"), "-w", "a b c d", "--random-loops", "3",
      "--seed", "0", "--json"], 0),
    ("holonomy_f42_random_text.txt",
     ["holonomy", fix("f42"), "-w", "a b c d", "--random-loops", "3", "--seed", "0"], 0),
    ("hexagon_f32.txt", ["hexagon", fix("f32")], 0),
    ("hexagon_bad.txt", ["hexagon", fix("bad")], 1),
    ("hexagon_bad_json.txt", ["hexagon", fix("bad"), "--json"], 1),
    ("hexagon_sl2_triple.txt",
     ["hexagon", fix("sl2"), "--triple", "e", "f", "h"], 0),
    ("contract_hexloop.txt", ["contract", "--n", "3", "--loop", "1 2 1 2 1 2"], 0),
    ("contract_square_json.txt",
     ["contract", "--n", "4", "--loop", "1 3 1 3", "--json"], 0),
]
