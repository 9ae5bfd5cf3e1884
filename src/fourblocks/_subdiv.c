/* Compiled kernel for the four-blocks cycle subdivision search.

   The twin of _subdiv_py.search_cycle_subdivision, which documents the
   algorithm: the same iterative deepening on L, the same distance-pruned
   walk over junction quadruples in (j1, j2, j3, j4) order with the same
   j3 < j1 symmetry cut, the same ascending extension on an explicit stack,
   and the same node accounting and budget cut-off. The kernels must return
   identical results; tests/test_kernel_parity.py checks this. Only the
   containers differ: here each truncated BFS fills a distance array (-1
   off the ball) and a queue, which is sorted into the candidate list and
   later used to reset the array; and the path search keeps the next arc of
   each vertex entered in a cursor array beside path_buf, on the heap.

   Plain C on flat int arrays, with no Python headers: the out-neighbors of
   u are indices[indptr[u] .. indptr[u + 1]), in ascending order.
   _subdiv_ctypes.py loads the built library, flattens the digraph's
   out-lists into those two arrays, checks the arguments and converts the
   result.
   Build with `python setup.py build_ext --inplace`, or by hand:

       cc -O2 -shared -fPIC _subdiv.c -o _subdiv.so

   Block lengths are at least 1 and at most n + 1 (the binding enforces
   this), so every length sum below stays within 5n + 4. */

#include <stdlib.h>

enum { FOUND = 0, ABSENT = 1, BUDGET = 2, NO_MEMORY = -1 };

typedef struct {
    const int *indptr, *indices;
    char *used;
    int *path_buf, *cursor; /* 4 rows of `stride` = n + 1 slots each */
    int *path_len;
    int stride, L;
    int mins[4], rem_after[4];
    long long nodes, budget;
} Search;

/* The distances of one truncated BFS: dist[v] for the vertices in
   queue[0..len), and -1 for every other vertex. */
typedef struct {
    int *dist, *queue, len;
} Ball;

static int max2(int a, int b)
{
    return a > b ? a : b;
}

/* Runs the path search for one junction quadruple: 1, 0 or -1.

   The paths are one explicit stack: slot i of row p holds vertex i of path
   p in path_buf and, in cursor, the next of its arcs to try. Reaching the
   target of path p enters the start of path p + 1; leaving that start
   returns to path p. Path p may take at most `longest` arcs, which leaves
   the later paths their minimum lengths at L: it closes with mins[p] to
   `longest` arcs, and enters another vertex only while the arc into its
   target still fits. */
static int close_cycle(Search *s, int j1, int j2, int j3, int j4)
{
    const int ends[4][2] = {{j1, j2}, {j3, j2}, {j3, j4}, {j1, j4}};
    int p = 0, plen = 0, longest = s->L - s->rem_after[0], i, v = j1, end;
    int *row = s->path_buf, *cur = s->cursor;
    s->used[j1] = s->used[j2] = s->used[j3] = s->used[j4] = 1;
    if (++s->nodes > s->budget)
        return -1;
    row[0] = v;
    cur[0] = s->indptr[v];
    for (;;) {
        end = s->indptr[row[plen] + 1];
        for (i = cur[plen]; i < end; i++) {
            v = s->indices[i];
            if (v == ends[p][1] ? s->mins[p] <= plen + 1 && plen + 1 <= longest
                                : plen + 2 <= longest && !s->used[v])
                break;
        }
        if (i == end) {
            if (plen > 0) {
                s->used[row[plen--]] = 0;
                continue;
            }
            if (p == 0)
                break;
            longest += s->path_len[p - 1] - 1 - s->mins[p];
            p--, row -= s->stride, cur -= s->stride;
            plen = s->path_len[p] - 2;
            continue;
        }
        cur[plen] = i + 1;
        if (v == ends[p][1]) {
            row[plen + 1] = v;
            s->path_len[p] = plen + 2;
            if (p == 3)
                return 1;
            longest += s->mins[++p] - plen - 1;
            row += s->stride, cur += s->stride;
            v = ends[p][0];
            plen = -1; /* the start of path p is its vertex 0 */
        } else
            s->used[v] = 1;
        if (++s->nodes > s->budget)
            return -1;
        row[++plen] = v;
        cur[plen] = s->indptr[v];
    }
    s->used[j1] = s->used[j2] = s->used[j3] = s->used[j4] = 0;
    return 0;
}

/* Fills ball with the vertices within `radius` of s along (ptr, ind). */
static void bfs(Ball *b, const int *ptr, const int *ind, int s, int radius)
{
    int head = 0, u, e, v;
    b->dist[s] = 0;
    b->queue[0] = s;
    b->len = 1;
    while (head < b->len) {
        u = b->queue[head++];
        if (b->dist[u] == radius)
            break; /* BFS order: the rest of the queue is at `radius` too */
        for (e = ptr[u]; e < ptr[u + 1]; e++) {
            v = ind[e];
            if (b->dist[v] < 0) {
                b->dist[v] = b->dist[u] + 1;
                b->queue[b->len++] = v;
            }
        }
    }
}

static void clear_ball(Ball *b)
{
    int i;
    for (i = 0; i < b->len; i++)
        b->dist[b->queue[i]] = -1;
    b->len = 0;
}

static int cmp_int(const void *x, const void *y)
{
    int a = *(const int *)x, b = *(const int *)y;
    return (a > b) - (a < b);
}

/* Stores the vertices of ball that have flag set in out, ascending, and
   returns their number. */
static int pick(const Ball *b, const char *flag, int *out)
{
    int i, c = 0;
    for (i = 0; i < b->len; i++)
        if (flag[b->queue[i]])
            out[c++] = b->queue[i];
    qsort(out, c, sizeof *out, cmp_int);
    return c;
}

/* Whether the unpruned enumeration holds a quadruple under (sources[a], j2),
   or under sources[a] alone when j2 is -1; t is the number of sinks other
   than j1 and j2. */
static int room(const int *sources, int nsrc, const char *is_sink, int sym,
                int a, int t, int j2)
{
    int c, j3, j1 = sources[a];
    if (t < 1)
        return 0;
    for (c = sym ? a + 1 : 0; c < nsrc; c++) {
        j3 = sources[c];
        if (j3 != j1 && j3 != j2 && t - is_sink[j3] >= 1)
            return 1;
    }
    return 0;
}

/* Returns FOUND, ABSENT, BUDGET or NO_MEMORY and stores the node count in
   *nodes. On FOUND, junctions[0..3] holds (j1, j2, j3, j4) and row p of
   path_buf (stride n + 1) holds the path_len[p] vertices of path p. */
int fb_search_cycle_subdivision(int n, const int *indptr, const int *indices,
                                int k1, int k2, int k3, int k4,
                                long long budget, int *junctions,
                                int *path_buf, int *path_len, long long *nodes)
{
    Search s = {indptr, indices, NULL, path_buf, NULL, path_len, n + 1, 0,
                {k1, k2, k3, k4}, {k2 + k3 + k4, k3 + k4, k4, 0}, 0, budget};
    Ball b1, b2, b3;
    int total_min = k1 + k2 + k3 + k4;
    int *in_deg = NULL, *sources = NULL, *rptr = NULL, *rind = NULL;
    int *dist = NULL, *queue = NULL, *cand = NULL, *c2, *c3;
    char *is_src = NULL, *is_sink = NULL;
    int m = indptr[n], nsrc = 0, nsnk = 0, sym = k1 == k3 && k2 == k4;
    int status = ABSENT, L, a, t, x, y, z, i, u, v, r, n1, n2, n3;
    int j1, j2, j3, j4, b12, b123;
    long long mark1, mark2, mark3;

    if (total_min > n)
        goto done;
    in_deg = calloc(n, sizeof *in_deg);
    sources = malloc(n * sizeof *sources);
    is_src = calloc(n, 1);
    is_sink = calloc(n, 1);
    s.used = calloc(n, 1);
    if (!in_deg || !sources || !is_src || !is_sink || !s.used) {
        status = NO_MEMORY;
        goto done;
    }
    for (i = 0; i < m; i++)
        in_deg[indices[i]] += 1;
    for (v = 0; v < n; v++) {
        if (indptr[v + 1] - indptr[v] >= 2) {
            sources[nsrc++] = v;
            is_src[v] = 1;
        }
        if (in_deg[v] >= 2) {
            is_sink[v] = 1;
            nsnk++;
        }
    }
    if (nsrc < 2 || nsnk < 2)
        goto done;

    /* the reversed digraph, for the BFS into j2; in_deg becomes the fill
       cursor */
    rptr = malloc((n + 1) * sizeof *rptr);
    rind = malloc(m * sizeof *rind);
    /* three balls and three candidate lists of n entries each */
    dist = malloc(3 * (size_t)n * sizeof *dist);
    queue = malloc(3 * (size_t)n * sizeof *queue);
    cand = malloc(3 * (size_t)n * sizeof *cand);
    s.cursor = malloc(4 * ((size_t)n + 1) * sizeof *s.cursor);
    if (!rptr || !rind || !dist || !queue || !cand || !s.cursor) {
        status = NO_MEMORY;
        goto done;
    }
    rptr[0] = 0;
    for (v = 0; v < n; v++) {
        rptr[v + 1] = rptr[v] + in_deg[v];
        in_deg[v] = rptr[v];
    }
    for (u = 0; u < n; u++)
        for (i = indptr[u]; i < indptr[u + 1]; i++)
            rind[in_deg[indices[i]]++] = u;
    for (i = 0; i < 3 * n; i++)
        dist[i] = -1;
    b1.dist = dist, b1.queue = queue, b1.len = 0;
    b2.dist = dist + n, b2.queue = queue + n, b2.len = 0;
    b3.dist = dist + 2 * n, b3.queue = queue + 2 * n, b3.len = 0;
    c2 = cand + n, c3 = cand + 2 * n;

    for (L = total_min; L <= n; L++) {
        s.L = L;
        for (a = 0; a < nsrc; a++) {
            j1 = sources[a];
            t = nsnk - 1 - is_sink[j1];
            if (!room(sources, nsrc, is_sink, sym, a, t, -1))
                continue;
            /* d(j1,j2) <= L - total_min + k1 and d(j1,j4) <= ... + k4 */
            bfs(&b1, indptr, indices, j1, L - total_min + max2(k1, k4));
            n1 = pick(&b1, is_sink, cand);
            mark1 = s.nodes;
            for (x = 0; x < n1; x++) {
                j2 = cand[x];
                if (j2 == j1)
                    continue;
                b12 = max2(k1, b1.dist[j2]);
                if (b12 + s.rem_after[0] > L
                    || !room(sources, nsrc, is_sink, sym, a, t, j2))
                    continue;
                bfs(&b2, rptr, rind, j2, L - b12 - s.rem_after[1]);
                n2 = pick(&b2, is_src, c2);
                mark2 = s.nodes;
                for (y = 0; y < n2; y++) {
                    j3 = c2[y];
                    if (j3 == j1 || j3 == j2 || (sym && j3 < j1)
                        || t - is_sink[j3] < 1)
                        continue;
                    b123 = b12 + max2(k2, b2.dist[j3]);
                    bfs(&b3, indptr, indices, j3, L - b123 - s.rem_after[2]);
                    n3 = pick(&b3, is_sink, c3);
                    mark3 = s.nodes;
                    for (z = 0; z < n3; z++) {
                        j4 = c3[z];
                        if (j4 == j1 || j4 == j2 || j4 == j3 || b1.dist[j4] < 0)
                            continue;
                        if (b123 + max2(k3, b3.dist[j4]) + max2(k4, b1.dist[j4]) > L)
                            continue;
                        if (++s.nodes > s.budget)
                            goto over_budget;
                        r = close_cycle(&s, j1, j2, j3, j4);
                        if (r == 1) {
                            junctions[0] = j1, junctions[1] = j2;
                            junctions[2] = j3, junctions[3] = j4;
                            status = FOUND;
                            goto done;
                        }
                        if (r == -1)
                            goto over_budget;
                    }
                    clear_ball(&b3);
                    if (s.nodes == mark3 && ++s.nodes > s.budget)
                        goto over_budget;
                }
                clear_ball(&b2);
                if (s.nodes == mark2 && ++s.nodes > s.budget)
                    goto over_budget;
            }
            clear_ball(&b1);
            if (s.nodes == mark1 && ++s.nodes > s.budget)
                goto over_budget;
        }
    }
    goto done;
over_budget:
    status = BUDGET;
done:
    *nodes = s.nodes;
    free(in_deg);
    free(sources);
    free(is_src);
    free(is_sink);
    free(s.used);
    free(rptr);
    free(rind);
    free(dist);
    free(queue);
    free(cand);
    free(s.cursor);
    return status;
}
