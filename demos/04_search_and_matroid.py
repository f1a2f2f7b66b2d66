# %% [markdown]
# Search oracles and the GF(2) matroid view
# -----------------------------------------
# Small grids can be handled exhaustively: the spanning-tree count comes
# from an integer determinant, enumeration visits every tree, and the exact
# minimum total cycle length falls out.  Larger grids use exactly uniform
# sampling (loop-erased random walks) and local search by edge swaps.
# Finally, a spanning tree turns the grid's cycle structure into a sparse
# GF(2) matrix whose number of ones is tied to the total cycle length.

# %%
from gridcycle import (SearchBudget, count_spanning_trees,
                       echelon_representation, local_search, make_grid,
                       min_total_length, random_spanning_tree, sparsity,
                       tree_from_edges)

for n in (2, 3, 4):
    print(f"{n}-grid has {count_spanning_trees(make_grid(n))} spanning trees")

# %%
rep = min_total_length(make_grid(4))
print(f"exact minimum over {rep.trees_scanned} trees: L = {rep.min_L}, "
      f"perimeter sum = {rep.min_P}")

# %%
# Uniform samples concentrate well above the optimum.
g = make_grid(10)
samples = [random_spanning_tree(g, seed).total_length().L_total
           for seed in range(20)]
print("sampled L on the 10-grid:", sorted(samples))

# %%
# Local search: strictly improving chord/tree-edge swaps.
t0 = random_spanning_tree(g, 0)
result = local_search(g, t0, SearchBudget(max_trees=3000, max_seconds=60,
                                          seed=0))
print(f"L {t0.total_length().L_total} -> {result.L} "
      f"({result.evaluations} candidate swaps scored, "
      f"{'local optimum' if result.local_optimum else 'budget hit'})")

# %%
# The echelon representation: tree edges give an identity block, every
# chord column records its fundamental cycle.  Ones = (n^2-1) + L - (n-1)^2.
g = make_grid(4)
t = random_spanning_tree(g, 5)
m = echelon_representation(g, t)
print(f"{m.n_rows} x {m.n_cols} matrix with {m.nnz} ones")
print("sparsity formula agrees:", m.nnz == sparsity(g, t))
m.to_file("matroid4.txt")
print("wrote matroid4.txt")
