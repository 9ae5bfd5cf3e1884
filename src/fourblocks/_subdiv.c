/* Compiled kernel for the four-blocks cycle subdivision search.

   A line-for-line transliteration of _subdiv_py.search_cycle_subdivision,
   which documents the algorithm: the same iterative deepening on L, the same
   (j1, j2, j3, j4) order and j3 < j1 symmetry cut, the same ascending
   extension, and the same node accounting and budget cut-off. The two
   kernels must return identical results; tests/test_kernel_parity.py checks
   this.

   Plain C on flat int arrays, with no Python headers. _subdiv_ctypes.py
   loads the built library, checks the arguments and converts the result.
   Build with `python setup.py build_ext --inplace`, or by hand:

       cc -O2 -shared -fPIC _subdiv.c -o _subdiv.so

   Block lengths are at least 1 and at most n + 1 (the binding enforces
   this), so every length sum below stays within 5n + 4. */

#include <stdlib.h>

enum { FOUND = 0, ABSENT = 1, BUDGET = 2, NO_MEMORY = -1 };

typedef struct {
    const int *indptr, *indices;
    char *used;
    int *path_buf; /* 4 rows of `stride` = n + 1 vertices */
    int *path_len;
    int stride, L;
    int mins[4], rem_after[4], starts[4], targets[4];
    long long nodes, budget;
} Search;

static int begin_path(Search *s, int p, int total);

static int extend(Search *s, int p, int u, int plen, int total)
{
    int i, v, r, need, kp, tgt;
    s->nodes += 1;
    if (s->nodes > s->budget)
        return -1;
    kp = s->mins[p];
    tgt = s->targets[p];
    for (i = s->indptr[u]; i < s->indptr[u + 1]; i++) {
        v = s->indices[i];
        if (v == tgt) {
            if (plen + 1 >= kp && total + 1 + s->rem_after[p] <= s->L) {
                s->path_buf[p * s->stride + s->path_len[p]++] = v;
                if (p == 3)
                    return 1;
                r = begin_path(s, p + 1, total + 1);
                if (r != 0)
                    return r;
                s->path_len[p]--;
            }
        } else if (!s->used[v]) {
            need = kp - (plen + 1);
            if (need < 1)
                need = 1;
            if (total + 1 + need + s->rem_after[p] <= s->L) {
                s->used[v] = 1;
                s->path_buf[p * s->stride + s->path_len[p]++] = v;
                r = extend(s, p, v, plen + 1, total + 1);
                if (r != 0)
                    return r;
                s->path_len[p]--;
                s->used[v] = 0;
            }
        }
    }
    return 0;
}

static int begin_path(Search *s, int p, int total)
{
    int r;
    s->path_buf[p * s->stride + s->path_len[p]++] = s->starts[p];
    r = extend(s, p, s->starts[p], 0, total);
    if (r == 0)
        s->path_len[p]--;
    return r;
}

/* Returns FOUND, ABSENT, BUDGET or NO_MEMORY and stores the node count in
   *nodes. On FOUND, junctions[0..3] holds (j1, j2, j3, j4) and row p of
   path_buf (stride n + 1) holds the path_len[p] vertices of path p. */
int fb_search_cycle_subdivision(int n, const int *indptr, const int *indices,
                                int k1, int k2, int k3, int k4,
                                long long budget, int *junctions,
                                int *path_buf, int *path_len, long long *nodes)
{
    Search s = {indptr, indices, NULL, path_buf, path_len, n + 1, 0,
                {k1, k2, k3, k4}, {k2 + k3 + k4, k3 + k4, k4, 0},
                {0}, {0}, 0, budget};
    int total_min = k1 + k2 + k3 + k4;
    int *in_deg = NULL, *sources = NULL, *sinks = NULL;
    int nsrc = 0, nsnk = 0, sym = k1 == k3 && k2 == k4;
    int status = ABSENT, extra, a, b, c, d, j1, j2, j3, j4, i, v, p, r;

    if (total_min > n)
        goto done;
    in_deg = calloc(n, sizeof *in_deg);
    sources = malloc(n * sizeof *sources);
    sinks = malloc(n * sizeof *sinks);
    s.used = calloc(n, 1);
    if (!in_deg || !sources || !sinks || !s.used) {
        status = NO_MEMORY;
        goto done;
    }
    for (i = 0; i < indptr[n]; i++)
        in_deg[indices[i]] += 1;
    for (v = 0; v < n; v++) {
        if (indptr[v + 1] - indptr[v] >= 2)
            sources[nsrc++] = v;
        if (in_deg[v] >= 2)
            sinks[nsnk++] = v;
    }
    if (nsrc < 2 || nsnk < 2)
        goto done;

    for (extra = 0; extra < n - total_min + 1; extra++) {
        s.L = total_min + extra;
        for (a = 0; a < nsrc; a++) {
            j1 = sources[a];
            for (b = 0; b < nsnk; b++) {
                j2 = sinks[b];
                if (j2 == j1)
                    continue;
                for (c = 0; c < nsrc; c++) {
                    j3 = sources[c];
                    if (j3 == j1 || j3 == j2 || (sym && j3 < j1))
                        continue;
                    for (d = 0; d < nsnk; d++) {
                        j4 = sinks[d];
                        if (j4 == j1 || j4 == j2 || j4 == j3)
                            continue;
                        s.nodes += 1;
                        if (s.nodes > s.budget) {
                            status = BUDGET;
                            goto done;
                        }
                        s.starts[0] = j1, s.targets[0] = j2;
                        s.starts[1] = j3, s.targets[1] = j2;
                        s.starts[2] = j3, s.targets[2] = j4;
                        s.starts[3] = j1, s.targets[3] = j4;
                        s.used[j1] = s.used[j2] = s.used[j3] = s.used[j4] = 1;
                        for (p = 0; p < 4; p++)
                            path_len[p] = 0;
                        r = begin_path(&s, 0, 0);
                        s.used[j1] = s.used[j2] = s.used[j3] = s.used[j4] = 0;
                        if (r == 1) {
                            junctions[0] = j1, junctions[1] = j2;
                            junctions[2] = j3, junctions[3] = j4;
                            status = FOUND;
                            goto done;
                        }
                        if (r == -1) {
                            status = BUDGET;
                            goto done;
                        }
                    }
                }
            }
        }
    }
done:
    *nodes = s.nodes;
    free(in_deg);
    free(sources);
    free(sinks);
    free(s.used);
    return status;
}
