# %% [markdown]
# The recursive low-average tree
# ------------------------------
# `build_tree(n)` assembles a spanning tree from two spine paths and three
# or four half-size copies of itself.  Its total fundamental-cycle length
# stays below 10 n^2 log2 n, so the average cycle length grows only
# logarithmically - compare with the comb tree of the previous demo.

# %%
from gridcycle import build_tree, validate_construction, write_svg
from gridcycle.construction import crossing_chords, crossing_cycle_cap

for n in (2, 3, 4, 5, 8, 16, 32, 64, 128, 256):
    t = build_tree(n)
    stats = t.total_length()
    print(f"n={n:4d}  L={stats.L_total:9d}  average={float(stats.average):7.3f}"
          f"  depth={t.max_depth():4d} (bound {2 * (n - 1)})")

# %%
# The structural validator checks the spanning property, the root corner,
# the distance bound and the total-length bound in one call.
report = validate_construction(build_tree(64))
print(report.summary())

# %%
# Chords that cross between the recursion's blocks are few (4n-8 or 3n-6)
# and their cycles are capped, which is what drives the bound.
for n in (9, 10, 15, 16):
    t = build_tree(n)
    cc = crossing_chords(t)
    cap = crossing_cycle_cap(n)
    worst = t.cycle_lengths(cc).max()
    print(f"n={n:3d}: {len(cc):3d} crossing chords, longest cycle {worst} <= {cap}")

# %%
# Draw one to look at (axis-aligned segments, root circled).
write_svg(build_tree(17), "tree17.svg")
print("wrote tree17.svg")
