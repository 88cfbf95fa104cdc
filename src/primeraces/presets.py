"""Named checkpoint presets: the x columns of the published tables, so a
single command reproduces a whole table.  Columns above the hard cap are
kept here for completeness; callers filter to their limit."""

_SMALL = list(range(100, 1001, 100)) + list(range(2000, 10001, 1000))

TABLE_COLUMNS = {
    "table1": _SMALL + [20000, 50000, 100000],
    "table2": _SMALL + [20000] + list(range(30000, 100001, 10000))
    + list(range(200000, 1000001, 100000)) + [2000000, 5000000, 10000000],
    "table3": [100, 200],
    "table4": [100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000,
               100000, 200000, 500000, 1000000],
    "table5": [10**k for k in range(8, 23)],
    "table6": [10**k for k in range(8, 23)],
    "table7": [1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000,
               500000, 1000000],
    "table8": [100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000,
               100000, 200000, 500000, 1000000],
    "table9": [10**k for k in range(3, 13)],
    "table10": [10**k for k in range(3, 13)],
    "psi": [100, 1000, 10000, 100000, 1000000],
}


def checkpoints(name, limit=None):
    """x column for a named preset ('paper:tableN' or 'tableN'), clipped
    to the limit when one is given."""
    key = name.split(":", 1)[1] if name.startswith("paper:") else name
    if key not in TABLE_COLUMNS:
        raise KeyError("unknown preset %r" % name)
    cols = TABLE_COLUMNS[key]
    if limit is not None:
        cols = [x for x in cols if x <= limit]
    return cols
