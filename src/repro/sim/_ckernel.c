/* Compiled simulation core for the "compiled" engine backend.
 *
 * One Core object holds the lowered state of every SM of one run: the
 * static per-instruction metadata table, the dynamic traces (deduplicated
 * by identity), and flat per-warp / per-CTA / per-scheduler records.
 * Core.resume(sm_id, ...) advances one SM's issue loop -- a C
 * transcription of StreamingMultiprocessor._step_fast's two try-issue
 * copies with the per-cycle clock and level accounting moved in -- until
 * the SM either finishes (returns a 7-tuple summary for the driver's
 * reconciliation) or reaches a *merge point*: a shared-memory-hierarchy access or a warp
 * EXIT.  At a merge point resume() parks the in-flight operation in a
 * small pending record and returns an op descriptor; the Python driver
 * (repro.sim.compiled) performs the shared operation through the real
 * Python objects in global (cycle, sm_id) order and calls resume() again,
 * which completes the parked op and continues.  This works without
 * coroutines because the loop's control flow after every merge point is
 * fixed: complete the operation, (on the scan path) promote the warp to
 * the scheduler's current slot, count the issue, and move to the next
 * scheduler.
 *
 * Everything shared between SMs stays in Python: hierarchy accesses, the whole _finish_warp -> retire ->
 * policy.fill chain, and the final reconciliation.  The driver re-lowers
 * the mutated state after each EXIT (see the sync protocol in
 * repro.sim.compiled).  Per-scheduler state is a flat member array
 * scanned in attach order -- observably identical to the Python
 * ready/blocked buckets: the buckets only reorder *consideration* of
 * warps that could not issue anyway, consideration order among ready
 * warps is always ascending sched_seq (== attach order), and the
 * failed-scan sleep fold reduces to the min blocked_until over every
 * attached warp.
 *
 * The level integrals are accumulated as int64 sums and merged into the
 * Python float counters once at the end: every term is an exact integer
 * product and the totals stay far below 2^53, so one float add of the
 * total is bit-identical to the per-segment float adds the other engines
 * perform.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define CK_FOREVER (1LL << 60)

/* Warp states (match repro.sim.warp.WarpState order used by the driver). */
#define W_RUNNABLE 0
#define W_BARRIER 1
#define W_FINISHED 2

/* resume() descriptor kinds. */
#define OP_DONE 0
#define OP_LOAD 1
#define OP_STORE 2
#define OP_EXIT 3

typedef struct {
    int32_t nsrc;
    int32_t dest;      /* -1 when the instruction writes no register */
    int32_t pat;       /* 0 STREAM / 1 REUSE / 2 SHARED_WS / -1 */
    int32_t fkind;     /* meta[8]: 0 fixed-lat, 1 LDG, 2 STG, 3 BAR,
                          4 EXIT, 5 no-op */
    int64_t flat;      /* meta[9]: total fixed latency for fkind 0 */
    int32_t src_off;   /* offset into Core.srcs */
} CMeta;

typedef struct {
    int32_t *idx;
    Py_ssize_t len;
} CTrace;

typedef struct {
    int32_t trace;          /* index into Core.traces */
    int32_t cta;            /* index into Core.ctas */
    int32_t state;
    int64_t pos;
    int64_t blocked_until;
    int64_t peak_ready;
    int64_t chk_pos;
    int64_t chk_ready;
    int64_t stream_counter;
    int64_t reuse_counter;
    int64_t shared_counter;
    int64_t stream_base;
    int64_t reuse_base;
    int64_t global_warp_id;
    int64_t *ready_at;      /* Core.nregs entries */
} CWarp;

typedef struct {
    int32_t *warps;         /* member wslots (construction order) */
    int32_t nwarps;
    int32_t cap;
    int64_t cta_id;
    int64_t barrier_arrived;
    int64_t first_issue;    /* -1 == None */
    int32_t stall_recorded;
} CCta;

typedef struct {
    int32_t *members;       /* wslots in sched_seq (attach) order */
    int32_t nmembers;
    int32_t cap;
    int64_t sleep_until;
    int32_t current;        /* wslot or -1 */
} CSched;

typedef struct {
    int64_t now;
    int32_t sched_idx;      /* scheduler to continue from */
    int32_t issued;         /* issues so far this cycle */
    int32_t status;         /* 0 fresh, 1 running, 2 done */
    /* Parked merge-point operation. */
    int32_t pend_kind;      /* 0 none / OP_LOAD / OP_STORE / OP_EXIT */
    int32_t pend_warp;
    int32_t pend_dest;
    int32_t pend_from_scan;
    int32_t pend_sched;
    /* Closed-form accounting (mirrors the runner's locals). */
    int64_t seg_start;
    int64_t seg_active;
    int64_t seg_warps;
    int64_t last_issue;
    int64_t n_issue;
    int32_t lvl_dirty;
    int64_t active_count;   /* len(sm.active_ctas), set at sync points */
    int64_t active_warps;   /* sm._active_warps, set at sync points */
    int64_t cta_sum;        /* integral of active CTA level (int64) */
    int64_t warp_sum;       /* integral of active warp level (int64) */
    int64_t max_resident;
    int64_t *stalls;        /* ordered stall latencies */
    int32_t nstalls;
    int32_t stallcap;
    /* Final summary (valid once status == 2). */
    int32_t sum_busy;
    int64_t sum_wake;
} CSm;

typedef struct {
    PyObject_HEAD
    int32_t num_sms;
    int32_t nsched;
    int32_t nregs;
    int64_t thresh;
    int64_t reuse_spatial;
    int64_t reuse_lines;
    int64_t shared_lines;
    int64_t shared_base;
    int64_t max_cycles;
    CMeta *meta;
    int32_t nmeta;
    int32_t *srcs;
    CTrace *traces;
    int32_t ntraces, tracecap;
    CWarp *warps;
    int32_t nwarps, warpcap;
    CCta *ctas;
    int32_t nctas, ctacap;
    CSm *sms;
    CSched *scheds;         /* num_sms * nsched, row-major by SM */
} CoreObject;

/* ------------------------------------------------------------------ */
static int
grow(void **buf, int32_t *cap, int32_t need, size_t itemsize)
{
    if (need <= *cap)
        return 0;
    int32_t ncap = *cap ? *cap : 16;
    while (ncap < need)
        ncap *= 2;
    void *nbuf = PyMem_Realloc(*buf, (size_t)ncap * itemsize);
    if (nbuf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = nbuf;
    *cap = ncap;
    return 0;
}

static void
core_dealloc(CoreObject *self)
{
    int32_t i;
    if (self->traces) {
        for (i = 0; i < self->ntraces; i++)
            PyMem_Free(self->traces[i].idx);
        PyMem_Free(self->traces);
    }
    if (self->warps) {
        for (i = 0; i < self->nwarps; i++)
            PyMem_Free(self->warps[i].ready_at);
        PyMem_Free(self->warps);
    }
    if (self->ctas) {
        for (i = 0; i < self->nctas; i++)
            PyMem_Free(self->ctas[i].warps);
        PyMem_Free(self->ctas);
    }
    if (self->scheds) {
        for (i = 0; i < self->num_sms * self->nsched; i++)
            PyMem_Free(self->scheds[i].members);
        PyMem_Free(self->scheds);
    }
    if (self->sms) {
        for (i = 0; i < self->num_sms; i++)
            PyMem_Free(self->sms[i].stalls);
        PyMem_Free(self->sms);
    }
    PyMem_Free(self->meta);
    PyMem_Free(self->srcs);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
core_init(CoreObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *meta_list;
    long long thresh, reuse_spatial, reuse_lines, shared_lines;
    long long shared_base, max_cycles;
    int num_sms, nsched, nregs;
    if (!PyArg_ParseTuple(args, "iiiLLLLLLO",
                          &num_sms, &nsched, &nregs, &thresh,
                          &reuse_spatial, &reuse_lines, &shared_lines,
                          &shared_base, &max_cycles, &meta_list))
        return -1;
    if (num_sms <= 0 || nsched <= 0 || nregs <= 0) {
        PyErr_SetString(PyExc_ValueError, "sizes must be positive");
        return -1;
    }
    self->num_sms = num_sms;
    self->nsched = nsched;
    self->nregs = nregs;
    self->thresh = thresh;
    self->reuse_spatial = reuse_spatial;
    self->reuse_lines = reuse_lines;
    self->shared_lines = shared_lines;
    self->shared_base = shared_base;
    self->max_cycles = max_cycles;

    PyObject *seq = PySequence_Fast(meta_list, "meta must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t nmeta = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t total_srcs = 0, i;
    for (i = 0; i < nmeta; i++) {
        PyObject *ent = PySequence_Fast_GET_ITEM(seq, i);
        PyObject *srcs = PyTuple_GetItem(ent, 5);
        if (srcs == NULL) {
            Py_DECREF(seq);
            return -1;
        }
        total_srcs += PySequence_Size(srcs);
    }
    self->meta = PyMem_Calloc(nmeta ? (size_t)nmeta : 1, sizeof(CMeta));
    self->srcs = PyMem_Calloc(total_srcs ? (size_t)total_srcs : 1,
                              sizeof(int32_t));
    if (self->meta == NULL || self->srcs == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return -1;
    }
    self->nmeta = (int32_t)nmeta;
    int32_t off = 0;
    for (i = 0; i < nmeta; i++) {
        PyObject *ent = PySequence_Fast_GET_ITEM(seq, i);
        CMeta *m = &self->meta[i];
        m->nsrc = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 0));
        m->dest = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 1));
        m->pat = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 2));
        m->fkind = (int32_t)PyLong_AsLong(PyTuple_GetItem(ent, 3));
        m->flat = PyLong_AsLongLong(PyTuple_GetItem(ent, 4));
        m->src_off = off;
        PyObject *srcs = PyTuple_GetItem(ent, 5);
        Py_ssize_t nsrc = PySequence_Size(srcs), j;
        for (j = 0; j < nsrc; j++) {
            PyObject *reg = PySequence_GetItem(srcs, j);
            self->srcs[off++] = (int32_t)PyLong_AsLong(reg);
            Py_XDECREF(reg);
        }
        if (PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);

    self->sms = PyMem_Calloc((size_t)num_sms, sizeof(CSm));
    self->scheds = PyMem_Calloc((size_t)num_sms * nsched, sizeof(CSched));
    if (self->sms == NULL || self->scheds == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int32_t s;
    for (s = 0; s < num_sms; s++) {
        CSm *sm = &self->sms[s];
        sm->last_issue = -1;
        sm->lvl_dirty = 1;
    }
    for (s = 0; s < num_sms * nsched; s++)
        self->scheds[s].current = -1;
    return 0;
}

/* ------------------------------------------------------------------ */
static PyObject *
core_add_trace(CoreObject *self, PyObject *arg)
{
    PyObject *seq = PySequence_Fast(arg, "trace must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq), i;
    int32_t *idx = PyMem_Malloc((len ? (size_t)len : 1) * sizeof(int32_t));
    if (idx == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (i = 0; i < len; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v < 0 || v >= self->nmeta) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "trace index out of meta range");
            PyMem_Free(idx);
            Py_DECREF(seq);
            return NULL;
        }
        idx[i] = (int32_t)v;
    }
    Py_DECREF(seq);
    if (grow((void **)&self->traces, &self->tracecap, self->ntraces + 1,
             sizeof(CTrace))) {
        PyMem_Free(idx);
        return NULL;
    }
    CTrace *t = &self->traces[self->ntraces];
    t->idx = idx;
    t->len = len;
    return PyLong_FromLong(self->ntraces++);
}

static PyObject *
core_new_cta(CoreObject *self, PyObject *args)
{
    int sm_id;
    long long cta_id;
    if (!PyArg_ParseTuple(args, "iL", &sm_id, &cta_id))
        return NULL;
    (void)sm_id;
    if (grow((void **)&self->ctas, &self->ctacap, self->nctas + 1,
             sizeof(CCta)))
        return NULL;
    CCta *c = &self->ctas[self->nctas];
    memset(c, 0, sizeof(*c));
    c->cta_id = cta_id;
    c->first_issue = -1;
    return PyLong_FromLong(self->nctas++);
}

static PyObject *
core_new_warp(CoreObject *self, PyObject *args)
{
    int sm_id, cslot, trace;
    long long gid;
    if (!PyArg_ParseTuple(args, "iiiL", &sm_id, &cslot, &trace, &gid))
        return NULL;
    (void)sm_id;
    if (cslot < 0 || cslot >= self->nctas
            || trace < 0 || trace >= self->ntraces) {
        PyErr_SetString(PyExc_ValueError, "bad cta/trace slot");
        return NULL;
    }
    if (grow((void **)&self->warps, &self->warpcap, self->nwarps + 1,
             sizeof(CWarp)))
        return NULL;
    CWarp *w = &self->warps[self->nwarps];
    memset(w, 0, sizeof(*w));
    w->trace = trace;
    w->cta = cslot;
    w->state = W_RUNNABLE;
    w->chk_pos = -1;
    w->global_warp_id = gid;
    w->stream_base = (gid & 0xFFFF) << 26;
    w->reuse_base = ((self->ctas[cslot].cta_id & 0xFFFF) << 18)
        | (1LL << 42);
    w->ready_at = PyMem_Calloc((size_t)self->nregs, sizeof(int64_t));
    if (w->ready_at == NULL)
        return PyErr_NoMemory();
    CCta *c = &self->ctas[cslot];
    if (grow((void **)&c->warps, &c->cap, c->nwarps + 1, sizeof(int32_t)))
        return NULL;
    c->warps[c->nwarps++] = self->nwarps;
    return PyLong_FromLong(self->nwarps++);
}

static PyObject *
core_set_sched(CoreObject *self, PyObject *args)
{
    int sm_id, sched_idx, current;
    long long sleep_until;
    PyObject *members;
    if (!PyArg_ParseTuple(args, "iiOLi", &sm_id, &sched_idx, &members,
                          &sleep_until, &current))
        return NULL;
    if (sm_id < 0 || sm_id >= self->num_sms
            || sched_idx < 0 || sched_idx >= self->nsched) {
        PyErr_SetString(PyExc_ValueError, "bad sm/sched index");
        return NULL;
    }
    CSched *sc = &self->scheds[sm_id * self->nsched + sched_idx];
    PyObject *seq = PySequence_Fast(members, "members must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq), i;
    if (grow((void **)&sc->members, &sc->cap, (int32_t)n,
             sizeof(int32_t))) {
        Py_DECREF(seq);
        return NULL;
    }
    for (i = 0; i < n; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v < 0 || v >= self->nwarps) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "bad warp slot");
            Py_DECREF(seq);
            return NULL;
        }
        sc->members[i] = (int32_t)v;
    }
    Py_DECREF(seq);
    sc->nmembers = (int32_t)n;
    sc->sleep_until = sleep_until;
    sc->current = current;
    Py_RETURN_NONE;
}

static PyObject *
core_set_levels(CoreObject *self, PyObject *args)
{
    int sm_id, dirty;
    long long active, warps;
    if (!PyArg_ParseTuple(args, "iiLL", &sm_id, &dirty, &active, &warps))
        return NULL;
    if (sm_id < 0 || sm_id >= self->num_sms) {
        PyErr_SetString(PyExc_ValueError, "bad sm index");
        return NULL;
    }
    CSm *sm = &self->sms[sm_id];
    if (dirty)
        sm->lvl_dirty = 1;
    sm->active_count = active;
    sm->active_warps = warps;
    Py_RETURN_NONE;
}

static PyObject *
core_set_warp(CoreObject *self, PyObject *args)
{
    int wslot, state;
    long long blocked;
    if (!PyArg_ParseTuple(args, "iiL", &wslot, &state, &blocked))
        return NULL;
    if (wslot < 0 || wslot >= self->nwarps) {
        PyErr_SetString(PyExc_ValueError, "bad warp slot");
        return NULL;
    }
    CWarp *w = &self->warps[wslot];
    w->state = state;
    w->blocked_until = blocked;
    Py_RETURN_NONE;
}

static PyObject *
core_get_warp(CoreObject *self, PyObject *arg)
{
    long wslot = PyLong_AsLong(arg);
    if (wslot < 0 || wslot >= self->nwarps) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "bad warp slot");
        return NULL;
    }
    CWarp *w = &self->warps[wslot];
    return Py_BuildValue("LiL", (long long)w->pos, (int)w->state,
                         (long long)w->blocked_until);
}

static PyObject *
core_get_cta(CoreObject *self, PyObject *arg)
{
    long cslot = PyLong_AsLong(arg);
    if (cslot < 0 || cslot >= self->nctas) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "bad cta slot");
        return NULL;
    }
    CCta *c = &self->ctas[cslot];
    return Py_BuildValue("LLi", (long long)c->barrier_arrived,
                         (long long)c->first_issue,
                         (int)c->stall_recorded);
}

static PyObject *
core_sched_state(CoreObject *self, PyObject *args)
{
    int sm_id, sched_idx;
    if (!PyArg_ParseTuple(args, "ii", &sm_id, &sched_idx))
        return NULL;
    if (sm_id < 0 || sm_id >= self->num_sms
            || sched_idx < 0 || sched_idx >= self->nsched) {
        PyErr_SetString(PyExc_ValueError, "bad sm/sched index");
        return NULL;
    }
    CSched *sc = &self->scheds[sm_id * self->nsched + sched_idx];
    return Py_BuildValue("Li", (long long)sc->sleep_until,
                         (int)sc->current);
}

static PyObject *
core_summary(CoreObject *self, PyObject *arg)
{
    long sm_id = PyLong_AsLong(arg);
    if (sm_id < 0 || sm_id >= self->num_sms) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "bad sm index");
        return NULL;
    }
    CSm *sm = &self->sms[sm_id];
    return Py_BuildValue("iLLLLLL", (int)sm->sum_busy,
                         (long long)sm->sum_wake,
                         (long long)sm->last_issue,
                         (long long)sm->n_issue,
                         (long long)sm->seg_start,
                         (long long)sm->seg_active,
                         (long long)sm->seg_warps);
}

static PyObject *
core_levels(CoreObject *self, PyObject *arg)
{
    long sm_id = PyLong_AsLong(arg);
    if (sm_id < 0 || sm_id >= self->num_sms) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "bad sm index");
        return NULL;
    }
    CSm *sm = &self->sms[sm_id];
    return Py_BuildValue("LLL", (long long)sm->cta_sum,
                         (long long)sm->warp_sum,
                         (long long)sm->max_resident);
}

static PyObject *
core_take_stalls(CoreObject *self, PyObject *arg)
{
    long sm_id = PyLong_AsLong(arg);
    if (sm_id < 0 || sm_id >= self->num_sms) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "bad sm index");
        return NULL;
    }
    CSm *sm = &self->sms[sm_id];
    PyObject *out = PyList_New(sm->nstalls);
    if (out == NULL)
        return NULL;
    int32_t i;
    for (i = 0; i < sm->nstalls; i++) {
        PyObject *v = PyLong_FromLongLong(sm->stalls[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    sm->nstalls = 0;
    return out;
}

/* ------------------------------------------------------------------ */
/* In-core subsystems: barrier arrival/release and the long-block /
 * fully-stalled check (exact transcriptions of CTASim.arrive_at_barrier,
 * maybe_release_barrier and SM._on_long_block under an inert policy). */

static int
cta_unfinished(CoreObject *core, CCta *c)
{
    int n = 0;
    int32_t i;
    for (i = 0; i < c->nwarps; i++)
        if (core->warps[c->warps[i]].state != W_FINISHED)
            n++;
    return n;
}

static void
on_long_block(CoreObject *core, CSm *sm, CWarp *w, int64_t now)
{
    CCta *c = &core->ctas[w->cta];
    /* cta.state is always ACTIVE here: inert policies never park CTAs
     * and finished CTAs have no blockable warps. */
    int64_t threshold = core->thresh > 1 ? core->thresh : 1;
    int saw = 0;
    int32_t i;
    for (i = 0; i < c->nwarps; i++) {
        CWarp *x = &core->warps[c->warps[i]];
        if (x->state == W_FINISHED)
            continue;
        saw = 1;
        if (x->blocked_until - now < threshold)
            return;
    }
    if (!saw)
        return;
    if (!c->stall_recorded && c->first_issue >= 0) {
        c->stall_recorded = 1;
        if (grow((void **)&sm->stalls, &sm->stallcap, sm->nstalls + 1,
                 sizeof(int64_t)) == 0)
            sm->stalls[sm->nstalls++] = now - c->first_issue;
        /* allocation failure: silently drop (PyErr already set; resume()
         * surfaces it at the next boundary) */
    }
    /* policy.on_cta_stalled: inert no-op by eligibility. */
}

/* Returns 1 when the barrier released (caller wakes the schedulers). */
static int
arrive_at_barrier(CoreObject *core, CWarp *w, int64_t now)
{
    CCta *c = &core->ctas[w->cta];
    w->state = W_BARRIER;
    w->blocked_until = CK_FOREVER;
    c->barrier_arrived += 1;
    if (c->barrier_arrived
            && c->barrier_arrived >= cta_unfinished(core, c)) {
        int32_t i;
        for (i = 0; i < c->nwarps; i++) {
            CWarp *x = &core->warps[c->warps[i]];
            if (x->state == W_BARRIER) {
                x->state = W_RUNNABLE;
                x->blocked_until = now;
            }
        }
        c->barrier_arrived = 0;
        return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The issue loop.  Helper: operand-ready cycle with the chk memo. */

static inline int64_t
operands_ready(CoreObject *core, CWarp *w, CMeta *m, int64_t pos,
               int64_t now)
{
    int64_t rdy = 0;
    if (m->nsrc && w->peak_ready > now) {
        if (w->chk_pos == pos) {
            rdy = w->chk_ready;
        } else {
            const int32_t *srcs = &core->srcs[m->src_off];
            int32_t i;
            for (i = 0; i < m->nsrc; i++) {
                int64_t t = w->ready_at[srcs[i]];
                if (t > rdy)
                    rdy = t;
            }
        }
    }
    return rdy;
}

static inline int64_t
mem_address(CoreObject *core, CWarp *w, CMeta *m)
{
    if (m->pat == 0) {              /* STREAM */
        int64_t c = w->stream_counter + 1;
        w->stream_counter = c;
        return w->stream_base + c * 128;
    }
    if (m->pat == 1) {              /* REUSE */
        int64_t c = w->reuse_counter;
        w->reuse_counter = c + 1;
        return w->reuse_base
            + ((c / core->reuse_spatial) % core->reuse_lines) * 128;
    }
    {                               /* SHARED_WS */
        int64_t c = w->shared_counter + 1;
        w->shared_counter = c;
        return core->shared_base
            + ((c * 7 + w->global_warp_id * 13) % core->shared_lines)
            * 128;
    }
}

static PyObject *
done_tuple(CSm *sm, int busy, int64_t wake)
{
    sm->status = 2;
    sm->sum_busy = busy;
    sm->sum_wake = wake;
    return Py_BuildValue("(i)", OP_DONE);
}

static PyObject *
core_resume(CoreObject *self, PyObject *args)
{
    int sm_id;
    long long mem_done;
    if (!PyArg_ParseTuple(args, "iL", &sm_id, &mem_done))
        return NULL;
    if (sm_id < 0 || sm_id >= self->num_sms) {
        PyErr_SetString(PyExc_ValueError, "bad sm index");
        return NULL;
    }
    CSm *sm = &self->sms[sm_id];
    CSched *scheds = &self->scheds[(size_t)sm_id * self->nsched];
    CWarp *W = self->warps;
    const int nsched = self->nsched;
    const int64_t thresh = self->thresh;
    const int64_t max_cycles = self->max_cycles;

    if (sm->status == 2) {
        PyErr_SetString(PyExc_RuntimeError, "resume() after completion");
        return NULL;
    }
    if (sm->status == 0) {
        sm->status = 1;
        if (sm->active_count == 0)
            return done_tuple(sm, 0, CK_FOREVER);
        if (max_cycles <= 0)
            return done_tuple(sm, 1, CK_FOREVER);
    }

    /* Complete the parked merge-point operation, if any.  After every
     * yield the runner finishes the op, promotes a scan-path warp to
     * current, counts the issue, and moves to the next scheduler. */
    if (sm->pend_kind) {
        int kind = sm->pend_kind;
        sm->pend_kind = 0;
        CWarp *w = &W[sm->pend_warp];
        if (kind == OP_LOAD) {
            w->ready_at[sm->pend_dest] = mem_done;
            if (mem_done > w->peak_ready)
                w->peak_ready = mem_done;
        }
        if (sm->pend_from_scan)
            scheds[sm->pend_sched].current = sm->pend_warp;
        sm->issued += 1;
        sm->sched_idx = sm->pend_sched + 1;
    }

    for (;;) {
        int64_t now = sm->now;
        int s;
        for (s = sm->sched_idx; s < nsched; s++) {
            CSched *sc = &scheds[s];
            if (now < sc->sleep_until)
                continue;
            int32_t cur = sc->current;
            if (cur >= 0) {
                CWarp *w = &W[cur];
                if (w->state == W_FINISHED) {
                    sc->current = -1;
                    cur = -1;
                } else if (w->blocked_until <= now
                           && w->state == W_RUNNABLE) {
                    /* ---- greedy retry of the current warp ---- */
                    int64_t pos = w->pos;
                    CMeta *m =
                        &self->meta[self->traces[w->trace].idx[pos]];
                    int64_t rdy = operands_ready(self, w, m, pos, now);
                    if (rdy <= now) {
                        CCta *c = &self->ctas[w->cta];
                        if (c->first_issue < 0)
                            c->first_issue = now;
                        w->pos = pos + 1;
                        int fk = m->fkind;
                        if (fk == 0) {
                            int64_t t = now + m->flat;
                            w->ready_at[m->dest] = t;
                            if (t > w->peak_ready)
                                w->peak_ready = t;
                        } else if (fk <= 2) {
                            int64_t address = mem_address(self, w, m);
                            sm->pend_kind = fk;
                            sm->pend_warp = cur;
                            sm->pend_dest = m->dest;
                            sm->pend_from_scan = 0;
                            sm->pend_sched = s;
                            sm->sched_idx = s;
                            return Py_BuildValue("iLiL", fk,
                                                 (long long)now, cur,
                                                 (long long)address);
                        } else if (fk == 3) {
                            if (arrive_at_barrier(self, w, now)) {
                                int k;
                                for (k = 0; k < nsched; k++)
                                    scheds[k].sleep_until = 0;
                            } else if (w->blocked_until == CK_FOREVER) {
                                on_long_block(self, sm, w, now);
                            }
                        } else if (fk == 4) {
                            sm->pend_kind = OP_EXIT;
                            sm->pend_warp = cur;
                            sm->pend_from_scan = 0;
                            sm->pend_sched = s;
                            sm->sched_idx = s;
                            return Py_BuildValue("iLi", OP_EXIT,
                                                 (long long)now, cur);
                        }
                        /* fk == 5: BRA / STS, no timing effect */
                        sm->issued += 1;
                        continue;      /* next scheduler */
                    }
                    w->blocked_until = rdy;
                    w->chk_pos = pos;
                    w->chk_ready = rdy;
                    if (rdy - now >= thresh)
                        on_long_block(self, sm, w, now);
                    /* blocked greedy warp: fall through to the scan */
                }
            }
            /* ---- oldest-first scan over the members (sched_seq
             * order; observably identical to the ready buckets) ---- */
            int dispatched = 0;
            int32_t i;
            for (i = 0; i < sc->nmembers && !dispatched; i++) {
                int32_t ws = sc->members[i];
                if (ws == cur)
                    continue;
                CWarp *w = &W[ws];
                if (w->blocked_until > now)
                    continue;
                if (w->state != W_RUNNABLE)
                    continue;
                int64_t pos = w->pos;
                CMeta *m = &self->meta[self->traces[w->trace].idx[pos]];
                int64_t rdy = operands_ready(self, w, m, pos, now);
                if (rdy > now) {
                    w->blocked_until = rdy;
                    w->chk_pos = pos;
                    w->chk_ready = rdy;
                    if (rdy - now >= thresh)
                        on_long_block(self, sm, w, now);
                    continue;
                }
                CCta *c = &self->ctas[w->cta];
                if (c->first_issue < 0)
                    c->first_issue = now;
                w->pos = pos + 1;
                int fk = m->fkind;
                if (fk == 0) {
                    int64_t t = now + m->flat;
                    w->ready_at[m->dest] = t;
                    if (t > w->peak_ready)
                        w->peak_ready = t;
                } else if (fk <= 2) {
                    int64_t address = mem_address(self, w, m);
                    sm->pend_kind = fk;
                    sm->pend_warp = ws;
                    sm->pend_dest = m->dest;
                    sm->pend_from_scan = 1;
                    sm->pend_sched = s;
                    sm->sched_idx = s;
                    return Py_BuildValue("iLiL", fk, (long long)now,
                                         (int)ws, (long long)address);
                } else if (fk == 3) {
                    if (arrive_at_barrier(self, w, now)) {
                        int k;
                        for (k = 0; k < nsched; k++)
                            scheds[k].sleep_until = 0;
                    } else if (w->blocked_until == CK_FOREVER) {
                        on_long_block(self, sm, w, now);
                    }
                } else if (fk == 4) {
                    sm->pend_kind = OP_EXIT;
                    sm->pend_warp = ws;
                    sm->pend_from_scan = 1;
                    sm->pend_sched = s;
                    sm->sched_idx = s;
                    return Py_BuildValue("iLi", OP_EXIT, (long long)now,
                                         (int)ws);
                }
                /* fk == 5: no timing effect */
                sc->current = ws;
                sm->issued += 1;
                dispatched = 1;
            }
            if (!dispatched) {
                /* Failed scan: the sleep fold.  Equals the bucket fold:
                 * min blocked_until over every attached warp, staying
                 * awake if any still reads <= now. */
                int64_t earliest = CK_FOREVER;
                int stay = 0;
                for (i = 0; i < sc->nmembers; i++) {
                    int64_t b = W[sc->members[i]].blocked_until;
                    if (b <= now) {
                        stay = 1;
                        break;
                    }
                    if (b < earliest)
                        earliest = b;
                }
                if (!stay)
                    sc->sleep_until = earliest;
            }
        }
        if (PyErr_Occurred())
            return NULL;

        /* ---- end of cycle: level-segment flush at dense boundaries */
        if (sm->lvl_dirty) {
            int64_t dt = now - sm->seg_start;
            if (dt) {
                sm->cta_sum += dt * sm->seg_active;
                sm->warp_sum += dt * sm->seg_warps;
                if (sm->seg_active > sm->max_resident)
                    sm->max_resident = sm->seg_active;
            }
            sm->seg_active = sm->active_count;
            sm->seg_warps = sm->active_warps;
            sm->seg_start = now;
            if (sm->seg_active > sm->max_resident)
                sm->max_resident = sm->seg_active;
            sm->lvl_dirty = 0;
        }

        if (sm->issued) {
            sm->n_issue += 1;
            sm->last_issue = now;
            sm->now = now + 1;
            if (sm->now >= max_cycles)
                return done_tuple(sm, sm->active_count > 0, CK_FOREVER);
            sm->issued = 0;
            sm->sched_idx = 0;
            continue;
        }
        int64_t wake = CK_FOREVER;
        for (s = 0; s < nsched; s++)
            if (scheds[s].sleep_until < wake)
                wake = scheds[s].sleep_until;
        if (wake <= now) {
            /* Dense clamp: the global clock marches through every cycle
             * a stale-awake scheduler pins; +1. */
            sm->now = now + 1;
            if (sm->now >= max_cycles)
                return done_tuple(sm, sm->active_count > 0, max_cycles);
            sm->issued = 0;
            sm->sched_idx = 0;
            continue;
        }
        if (sm->active_count == 0)
            return done_tuple(sm, 0, CK_FOREVER);
        if (wake >= max_cycles)
            return done_tuple(sm, 1, wake);
        sm->now = wake;
        sm->issued = 0;
        sm->sched_idx = 0;
    }
}

/* ------------------------------------------------------------------ */
static PyMethodDef core_methods[] = {
    {"add_trace", (PyCFunction)core_add_trace, METH_O,
     "Lower one dynamic trace (sequence of static indices) -> index."},
    {"new_cta", (PyCFunction)core_new_cta, METH_VARARGS,
     "new_cta(sm_id, cta_id) -> cta slot."},
    {"new_warp", (PyCFunction)core_new_warp, METH_VARARGS,
     "new_warp(sm_id, cta_slot, trace_idx, global_warp_id) -> warp slot."},
    {"set_sched", (PyCFunction)core_set_sched, METH_VARARGS,
     "set_sched(sm_id, sched_idx, member_wslots, sleep_until, current)."},
    {"set_levels", (PyCFunction)core_set_levels, METH_VARARGS,
     "set_levels(sm_id, dirty, active_ctas, active_warps)."},
    {"set_warp", (PyCFunction)core_set_warp, METH_VARARGS,
     "set_warp(wslot, state, blocked_until)."},
    {"get_warp", (PyCFunction)core_get_warp, METH_O,
     "get_warp(wslot) -> (pos, state, blocked_until)."},
    {"get_cta", (PyCFunction)core_get_cta, METH_O,
     "get_cta(cslot) -> (barrier_arrived, first_issue, stall_recorded)."},
    {"sched_state", (PyCFunction)core_sched_state, METH_VARARGS,
     "sched_state(sm_id, sched_idx) -> (sleep_until, current_wslot)."},
    {"summary", (PyCFunction)core_summary, METH_O,
     "summary(sm_id) -> the 7-tuple runner summary."},
    {"levels", (PyCFunction)core_levels, METH_O,
     "levels(sm_id) -> (active_cta_sum, active_warp_sum, max_resident)."},
    {"take_stalls", (PyCFunction)core_take_stalls, METH_O,
     "take_stalls(sm_id) -> ordered stall latencies (drains the log)."},
    {"resume", (PyCFunction)core_resume, METH_VARARGS,
     "resume(sm_id, mem_done) -> op descriptor tuple."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Core",
    .tp_basicsize = sizeof(CoreObject),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Lowered per-run simulation core for the compiled backend.",
    .tp_methods = core_methods,
    .tp_init = (initproc)core_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._ckernel",
    "Compiled issue-loop core for the 'compiled' engine backend.",
    -1,
    NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&ckernel_module);
    if (mod == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(mod, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(mod);
        return NULL;
    }
    if (PyModule_AddIntConstant(mod, "FOREVER", CK_FOREVER) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
