/* C accelerator for the repro hot core: Simulator, Link, Node.
 *
 * Design (see docs/COMPILED.md):
 *
 *   - Every compiled class SUBCLASSES its pure-python counterpart and
 *     overrides only the hot methods, so isinstance checks, inherited
 *     cold methods (__init__, checkpointing, the component registry),
 *     and user code keep working unchanged.
 *
 *   - Simulator state is shadowed: the compiled subclass appends a C
 *     struct after the base object layout (event heap as an array of
 *     structs, clock/seq/live counters as C scalars) and exposes every
 *     base slot name through getset descriptors, so pure-python code --
 *     including the inherited __init__, EventHandle.cancel, the
 *     sanitizer audits, and pickle -- reads and writes the C state
 *     transparently.  The base __slots__ storage is never used.
 *
 *   - Semantics are bit-identical to the pure engine by construction:
 *     event seq numbers are allocated in the same order, the heap pops
 *     in the same (time, seq) total order (seqs are unique, so internal
 *     array layout cannot matter), and the original time *objects* are
 *     preserved so the clock shows exactly what a pure run would show.
 *     The golden suite asserts this end to end.
 *
 *   - Only the watchdog-free run loop (run_fast) is in C.  run() with
 *     watchdogs, profiling, or the sanitizer calls the one checked loop
 *     both builds share (repro.sim.engine._run_checked), and step() is
 *     inherited from the pure class; both sit on the C _pop_due.
 *
 *   - Link/Node override the per-packet methods and call the C
 *     scheduler internals directly, delegating every cold or unusual
 *     branch (faults, loss models, observers, broken source routes)
 *     back to the pure methods.  ``dst.receive`` stays a per-event
 *     attribute lookup on purpose -- repro.obs.trace patches it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* Cached objects (module-lifetime, set in module exec)                */
/* ------------------------------------------------------------------ */
static PyObject *pure_simulator;       /* repro.sim.engine.Simulator */
static PyObject *pure_link;            /* repro.net.link.Link */
static PyObject *pure_node;            /* repro.net.node.Node */
static PyTypeObject *event_handle_type;
static PyTypeObject *droptail_type;    /* repro.net.queues.DropTailQueue */
static PyObject *exc_schedule_in_past;
static PyObject *exc_simulation_error;
static PyObject *empty_tuple;
static PyObject *str_empty;
static PyObject *deque_append;         /* collections.deque.append descriptor */
static PyObject *deque_popleft;
static PyObject *pure_link_enqueue;    /* unbound pure fallbacks */
static PyObject *pure_node_receive;
static PyObject *pure_node_next_hop;

static PyObject *csim_type_obj;        /* the compiled Simulator type */
static PyObject *clink_type_obj;
static PyObject *cnode_type_obj;
static Py_ssize_t csim_state_off;      /* C struct offset inside instances */

/* Lazily resolved (import cycles: these import repro.core / checkpoint) */
static PyObject *run_checked_fn;       /* repro.sim.engine._run_checked */
static PyObject *unpickle_sim_fn;      /* repro.core.engine_select._unpickle_* */
static PyObject *unpickle_link_fn;
static PyObject *unpickle_node_fn;

/* Interned attribute names */
static PyObject *str_heap_high_water, *str_receive, *str_name, *str_agents,
    *str_links, *str_routes, *str_dead_letters, *str_enqueue, *str_push,
    *str_pop, *str_get, *str_delay_for, *str_getstate,
    *str_notify_drop, *str_post_in;

/* Pure-class slot offsets, resolved from member descriptors at init.   */
static Py_ssize_t eh_time, eh_seq, eh_callback, eh_label, eh_owner;
static Py_ssize_t lk_sim, lk_dst, lk_delay, lk_queue, lk_loss_model,
    lk_delay_model, lk_finish_cb, lk_label_tx, lk_label_rx, lk_inv_bw,
    lk_post_in, lk_busy, lk_tx_packets, lk_tx_bytes, lk_arrived, lk_up,
    lk_delay_scale, lk_fault_rate;
static Py_ssize_t pk_size_bytes, pk_hops, pk_route, pk_route_index, pk_dst,
    pk_flow_id;
static Py_ssize_t q_capacity, q_buffer, q_enqueued, q_maxocc, q_obs;

#define NUM_SIM_BASE_SLOTS 10
static Py_ssize_t sim_base_slot_off[NUM_SIM_BASE_SLOTS];

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* ------------------------------------------------------------------ */
/* Heap entries and per-simulator C state                              */
/* ------------------------------------------------------------------ */
#define EV_HANDLE 1

typedef struct {
    double time;          /* comparison key (== float(time_obj)) */
    long long seq;
    PyObject *time_obj;   /* original time object, preserved for the clock */
    PyObject *target;     /* callable, or EventHandle when EV_HANDLE */
    PyObject *args;       /* NULL (no args) or the args object (a tuple) */
    PyObject *label;
    int flags;
} entry_t;

typedef struct {
    entry_t *entries;
    Py_ssize_t size;
    Py_ssize_t capacity;
    double now_d;         /* kept in sync with now_obj */
    long long seq;
    long long live;
    long long dispatched;
    int running;
    PyObject *now_obj;
    PyObject *rng;
    PyObject *sanitize;
    PyObject *profile;    /* SimProfile or Py_None */
    PyObject *components;
} csim_state;

#define CSIM_ST(o) ((csim_state *)((char *)(o) + csim_state_off))

static inline int
entry_lt(const entry_t *a, const entry_t *b)
{
    if (a->time < b->time) {
        return 1;
    }
    if (a->time > b->time) {
        return 0;
    }
    return a->seq < b->seq;
}

static void
entry_decref(entry_t *e)
{
    Py_XDECREF(e->time_obj);
    Py_XDECREF(e->target);
    Py_XDECREF(e->args);
    Py_XDECREF(e->label);
}

static int
ensure_capacity(csim_state *st, Py_ssize_t need)
{
    Py_ssize_t cap;
    entry_t *mem;
    if (st->capacity >= need) {
        return 0;
    }
    cap = st->capacity ? st->capacity : 32;
    while (cap < need) {
        cap *= 2;
    }
    mem = (entry_t *)PyMem_Realloc(st->entries, (size_t)cap * sizeof(entry_t));
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    st->entries = mem;
    st->capacity = cap;
    return 0;
}

static void
siftup_entry(entry_t *arr, Py_ssize_t pos)
{
    entry_t e = arr[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&e, &arr[parent])) {
            break;
        }
        arr[pos] = arr[parent];
        pos = parent;
    }
    arr[pos] = e;
}

static void
siftdown_entry(entry_t *arr, Py_ssize_t size, Py_ssize_t pos)
{
    entry_t e = arr[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size) {
            break;
        }
        if (child + 1 < size && entry_lt(&arr[child + 1], &arr[child])) {
            child++;
        }
        if (!entry_lt(&arr[child], &e)) {
            break;
        }
        arr[pos] = arr[child];
        pos = child;
    }
    arr[pos] = e;
}

/* Remove the root; the caller must have copied entries[0] out first.   */
static void
heap_remove_root(csim_state *st)
{
    st->size--;
    if (st->size > 0) {
        st->entries[0] = st->entries[st->size];
        siftdown_entry(st->entries, st->size, 0);
    }
}

/* Push one entry.  Increfs everything it stores; never runs Python.    */
static int
heap_push(csim_state *st, double time, PyObject *time_obj, long long seq,
          PyObject *target, PyObject *args, PyObject *label, int flags)
{
    entry_t *e;
    if (ensure_capacity(st, st->size + 1) < 0) {
        return -1;
    }
    e = &st->entries[st->size];
    e->time = time;
    e->seq = seq;
    e->time_obj = Py_NewRef(time_obj);
    e->target = Py_NewRef(target);
    e->args = args == NULL ? NULL : Py_NewRef(args);
    e->label = Py_NewRef(label);
    e->flags = flags;
    siftup_entry(st->entries, st->size);
    st->size++;
    return 0;
}

/* live++ plus the profile heap high-water check (cold when detached). */
static int
note_scheduled(csim_state *st, long long added)
{
    st->live += added;
    if (st->profile != NULL && st->profile != Py_None) {
        PyObject *hw = PyObject_GetAttr(st->profile, str_heap_high_water);
        long long cur;
        if (hw == NULL) {
            return -1;
        }
        cur = PyLong_AsLongLong(hw);
        Py_DECREF(hw);
        if (cur == -1 && PyErr_Occurred()) {
            return -1;
        }
        if (st->live > cur) {
            PyObject *nv = PyLong_FromLongLong(st->live);
            int r;
            if (nv == NULL) {
                return -1;
            }
            r = PyObject_SetAttr(st->profile, str_heap_high_water, nv);
            Py_DECREF(nv);
            if (r < 0) {
                return -1;
            }
        }
    }
    return 0;
}

static int
raise_schedule_in_past(PyObject *time_obj, PyObject *now_obj)
{
    PyObject *exc = PyObject_CallFunctionObjArgs(
        exc_schedule_in_past, time_obj, now_obj ? now_obj : Py_None, NULL);
    if (exc != NULL) {
        PyErr_SetObject(exc_schedule_in_past, exc);
        Py_DECREF(exc);
    }
    return -1;
}

/* float(x) as a double with error signalling via *err.                 */
static inline double
as_double(PyObject *x, int *err)
{
    double d;
    if (PyFloat_CheckExact(x)) {
        *err = 0;
        return PyFloat_AS_DOUBLE(x);
    }
    d = PyFloat_AsDouble(x);
    if (d == -1.0 && PyErr_Occurred()) {
        *err = 1;
        return 0.0;
    }
    *err = 0;
    return d;
}

/* now + delay, preserving pure semantics: float + float stays a C
 * double add (bit-identical to CPython's float.__add__); anything else
 * goes through PyNumber_Add so e.g. integer clocks behave exactly as
 * they would in pure python.  Returns a new reference. */
static PyObject *
add_now_delay(csim_state *st, PyObject *delay, double *time_d)
{
    PyObject *t;
    double td;
    int err;
    if (PyFloat_CheckExact(delay) && st->now_obj != NULL
        && PyFloat_CheckExact(st->now_obj)) {
        td = st->now_d + PyFloat_AS_DOUBLE(delay);
        *time_d = td;
        return PyFloat_FromDouble(td);
    }
    t = PyNumber_Add(st->now_obj != NULL ? st->now_obj : Py_False, delay);
    if (t == NULL) {
        return NULL;
    }
    td = as_double(t, &err);
    if (err) {
        Py_DECREF(t);
        return NULL;
    }
    *time_d = td;
    return t;
}

/* Dispatch one event exactly like the pure engine's arity fork.        */
static PyObject *
call_event(PyObject *callback, PyObject *args)
{
    if (args == NULL) {
        return PyObject_CallNoArgs(callback);
    }
    if (PyTuple_CheckExact(args)) {
        if (PyTuple_GET_SIZE(args) == 1) {
            return PyObject_CallOneArg(callback, PyTuple_GET_ITEM(args, 0));
        }
        return PyObject_Call(callback, args, NULL);
    }
    {
        PyObject *t = PySequence_Tuple(args);
        PyObject *r;
        if (t == NULL) {
            return NULL;
        }
        r = PyObject_Call(callback, t, NULL);
        Py_DECREF(t);
        return r;
    }
}

/* ------------------------------------------------------------------ */
/* Fastcall argument filling: positional + keyword into a fixed table  */
/* ------------------------------------------------------------------ */
static int
fill_args(const char *fname, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames, const char *const names[], Py_ssize_t total,
          Py_ssize_t required, PyObject **out)
{
    Py_ssize_t i;
    for (i = 0; i < total; i++) {
        out[i] = NULL;
    }
    if (nargs > total) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most %zd arguments (%zd given)", fname,
                     total, nargs);
        return -1;
    }
    for (i = 0; i < nargs; i++) {
        out[i] = args[i];
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (i = 0; i < nkw; i++) {
            PyObject *key = PyTuple_GET_ITEM(kwnames, i);
            const char *k = PyUnicode_AsUTF8(key);
            Py_ssize_t t, found = -1;
            if (k == NULL) {
                return -1;
            }
            for (t = 0; t < total; t++) {
                if (strcmp(k, names[t]) == 0) {
                    found = t;
                    break;
                }
            }
            if (found < 0) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument '%s'",
                             fname, k);
                return -1;
            }
            if (out[found] != NULL) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got multiple values for argument '%s'",
                             fname, k);
                return -1;
            }
            out[found] = args[nargs + i];
        }
    }
    for (i = 0; i < required; i++) {
        if (out[i] == NULL) {
            PyErr_Format(PyExc_TypeError,
                         "%s() missing required argument '%s'", fname,
                         names[i]);
            return -1;
        }
    }
    return 0;
}

/* ================================================================== */
/* Simulator                                                           */
/* ================================================================== */

/* ---------------- getsets: base slot names -> C state -------------- */
static PyObject *
csim_get_now(PyObject *self, void *closure)
{
    csim_state *st = CSIM_ST(self);
    (void)closure;
    if (st->now_obj == NULL) {
        PyErr_SetString(PyExc_AttributeError, "now");
        return NULL;
    }
    return Py_NewRef(st->now_obj);
}

static int
csim_set_now(PyObject *self, PyObject *value, void *closure)
{
    csim_state *st = CSIM_ST(self);
    double d;
    int err;
    (void)closure;
    if (value == NULL) {
        Py_CLEAR(st->now_obj);
        return 0;
    }
    d = as_double(value, &err);
    if (err) {
        return -1;
    }
    Py_XSETREF(st->now_obj, Py_NewRef(value));
    st->now_d = d;
    return 0;
}

static PyObject *
csim_get_obj(PyObject *self, void *closure)
{
    PyObject *v = *(PyObject **)((char *)CSIM_ST(self) + (Py_ssize_t)closure);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "attribute is not set");
        return NULL;
    }
    return Py_NewRef(v);
}

static int
csim_set_obj(PyObject *self, PyObject *value, void *closure)
{
    PyObject **slot =
        (PyObject **)((char *)CSIM_ST(self) + (Py_ssize_t)closure);
    if (value == NULL) {
        Py_CLEAR(*slot);
        return 0;
    }
    Py_XSETREF(*slot, Py_NewRef(value));
    return 0;
}

static PyObject *
csim_get_ll(PyObject *self, void *closure)
{
    long long v = *(long long *)((char *)CSIM_ST(self) + (Py_ssize_t)closure);
    return PyLong_FromLongLong(v);
}

static int
csim_set_ll(PyObject *self, PyObject *value, void *closure)
{
    long long v;
    if (value == NULL) {
        PyErr_SetString(PyExc_TypeError, "cannot delete counter");
        return -1;
    }
    v = PyLong_AsLongLong(value);
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    *(long long *)((char *)CSIM_ST(self) + (Py_ssize_t)closure) = v;
    return 0;
}

static PyObject *
csim_get_running(PyObject *self, void *closure)
{
    (void)closure;
    return PyBool_FromLong(CSIM_ST(self)->running);
}

static int
csim_set_running(PyObject *self, PyObject *value, void *closure)
{
    int v;
    (void)closure;
    if (value == NULL) {
        CSIM_ST(self)->running = 0;
        return 0;
    }
    v = PyObject_IsTrue(value);
    if (v < 0) {
        return -1;
    }
    CSIM_ST(self)->running = v;
    return 0;
}

/* _heap materializes the C array as pure-format 5-tuples.  The array
 * order satisfies the binary-heap invariant exactly as a heapq list
 * would (same indexing scheme), so a pure build can adopt it as-is. */
static PyObject *
csim_get_heap(PyObject *self, void *closure)
{
    csim_state *st = CSIM_ST(self);
    PyObject *list = PyList_New(st->size);
    Py_ssize_t i;
    (void)closure;
    if (list == NULL) {
        return NULL;
    }
    for (i = 0; i < st->size; i++) {
        entry_t *e = &st->entries[i];
        PyObject *seq = PyLong_FromLongLong(e->seq);
        PyObject *tup;
        if (seq == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        tup = PyTuple_Pack(5, e->time_obj, seq, e->target,
                           e->args != NULL ? e->args : Py_None, e->label);
        Py_DECREF(seq);
        if (tup == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, tup);
    }
    return list;
}

static void
clear_entries(csim_state *st)
{
    entry_t *arr = st->entries;
    Py_ssize_t n = st->size;
    Py_ssize_t i;
    /* Detach before decref'ing: a destructor could re-enter and push. */
    st->entries = NULL;
    st->size = 0;
    st->capacity = 0;
    for (i = 0; i < n; i++) {
        entry_decref(&arr[i]);
    }
    PyMem_Free(arr);
}

static int
csim_set_heap(PyObject *self, PyObject *value, void *closure)
{
    csim_state *st = CSIM_ST(self);
    PyObject *fast;
    PyObject **items;
    Py_ssize_t n, i;
    (void)closure;
    if (value == NULL) {
        clear_entries(st);
        return 0;
    }
    fast = PySequence_Fast(value, "_heap must be a sequence of 5-tuples");
    if (fast == NULL) {
        return -1;
    }
    n = PySequence_Fast_GET_SIZE(fast);
    items = PySequence_Fast_ITEMS(fast);
    clear_entries(st);
    if (ensure_capacity(st, n) < 0) {
        Py_DECREF(fast);
        return -1;
    }
    for (i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast(
            items[i], "_heap entries must be (time, seq, target, args, label)");
        PyObject **f;
        entry_t *e;
        double td;
        long long seq;
        int err;
        if (item == NULL) {
            Py_DECREF(fast);
            return -1;
        }
        if (PySequence_Fast_GET_SIZE(item) != 5) {
            Py_DECREF(item);
            Py_DECREF(fast);
            PyErr_SetString(
                PyExc_ValueError,
                "_heap entries must be (time, seq, target, args, label)");
            return -1;
        }
        f = PySequence_Fast_ITEMS(item);
        td = as_double(f[0], &err);
        if (err) {
            Py_DECREF(item);
            Py_DECREF(fast);
            return -1;
        }
        seq = PyLong_AsLongLong(f[1]);
        if (seq == -1 && PyErr_Occurred()) {
            Py_DECREF(item);
            Py_DECREF(fast);
            return -1;
        }
        e = &st->entries[st->size];
        e->time = td;
        e->seq = seq;
        e->time_obj = Py_NewRef(f[0]);
        e->target = Py_NewRef(f[2]);
        e->args = f[3] == Py_None ? NULL : Py_NewRef(f[3]);
        e->label = Py_NewRef(f[4]);
        e->flags = Py_IS_TYPE(f[2], event_handle_type) ? EV_HANDLE : 0;
        st->size++;
        Py_DECREF(item);
    }
    Py_DECREF(fast);
    /* Input is normally already a valid heap; heapify is then a no-op
     * order-wise and cheap insurance otherwise. */
    for (i = st->size / 2 - 1; i >= 0; i--) {
        siftdown_entry(st->entries, st->size, i);
    }
    return 0;
}

static PyGetSetDef csim_getsets[] = {
    {"now", csim_get_now, csim_set_now, NULL, NULL},
    {"rng", csim_get_obj, csim_set_obj, NULL,
     (void *)offsetof(csim_state, rng)},
    {"sanitize", csim_get_obj, csim_set_obj, NULL,
     (void *)offsetof(csim_state, sanitize)},
    {"_profile", csim_get_obj, csim_set_obj, NULL,
     (void *)offsetof(csim_state, profile)},
    {"_components", csim_get_obj, csim_set_obj, NULL,
     (void *)offsetof(csim_state, components)},
    {"_seq", csim_get_ll, csim_set_ll, NULL,
     (void *)offsetof(csim_state, seq)},
    {"_live", csim_get_ll, csim_set_ll, NULL,
     (void *)offsetof(csim_state, live)},
    {"_dispatched", csim_get_ll, csim_set_ll, NULL,
     (void *)offsetof(csim_state, dispatched)},
    {"_running", csim_get_running, csim_set_running, NULL, NULL},
    {"_heap", csim_get_heap, csim_set_heap, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

/* ---------------- scheduling methods ------------------------------- */
static PyObject *
csim_reserve_seq(PyObject *self, PyObject *ignored)
{
    csim_state *st = CSIM_ST(self);
    (void)ignored;
    return PyLong_FromLongLong(st->seq++);
}

static PyObject *
csim_schedule(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    static const char *const names[] = {"time", "callback", "label", "args",
                                        "seq"};
    PyObject *a[5];
    csim_state *st = CSIM_ST(self);
    PyObject *time_obj, *callback, *label, *cargs, *seq_obj, *handle;
    double td;
    long long seq;
    int err;
    if (fill_args("schedule", args, nargs, kwnames, names, 5, 2, a) < 0) {
        return NULL;
    }
    time_obj = a[0];
    callback = a[1];
    label = a[2] != NULL ? a[2] : str_empty;
    cargs = (a[3] == NULL || a[3] == Py_None) ? NULL : a[3];
    seq_obj = a[4];
    td = as_double(time_obj, &err);
    if (err) {
        return NULL;
    }
    if (td < st->now_d) {
        raise_schedule_in_past(time_obj, st->now_obj);
        return NULL;
    }
    if (seq_obj == NULL || seq_obj == Py_None) {
        seq = st->seq++;
    }
    else {
        seq = PyLong_AsLongLong(seq_obj);
        if (seq == -1 && PyErr_Occurred()) {
            return NULL;
        }
    }
    handle = event_handle_type->tp_alloc(event_handle_type, 0);
    if (handle == NULL) {
        return NULL;
    }
    {
        PyObject *seq_py = PyLong_FromLongLong(seq);
        if (seq_py == NULL) {
            Py_DECREF(handle);
            return NULL;
        }
        SLOT(handle, eh_time) = Py_NewRef(time_obj);
        SLOT(handle, eh_seq) = seq_py;
        SLOT(handle, eh_callback) = Py_NewRef(callback);
        SLOT(handle, eh_label) = Py_NewRef(label);
        SLOT(handle, eh_owner) = Py_NewRef(self);
    }
    if (heap_push(st, td, time_obj, seq, handle, cargs, label, EV_HANDLE) < 0
        || note_scheduled(st, 1) < 0) {
        Py_DECREF(handle);
        return NULL;
    }
    return handle;
}

static PyObject *
csim_post(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames)
{
    static const char *const names[] = {"time", "callback", "args", "label"};
    PyObject *a[4];
    csim_state *st = CSIM_ST(self);
    PyObject *time_obj, *callback, *cargs, *label;
    double td;
    int err;
    if (fill_args("post", args, nargs, kwnames, names, 4, 2, a) < 0) {
        return NULL;
    }
    time_obj = a[0];
    callback = a[1];
    cargs = (a[2] == NULL || a[2] == Py_None) ? NULL : a[2];
    label = a[3] != NULL ? a[3] : str_empty;
    td = as_double(time_obj, &err);
    if (err) {
        return NULL;
    }
    if (td < st->now_d) {
        raise_schedule_in_past(time_obj, st->now_obj);
        return NULL;
    }
    if (heap_push(st, td, time_obj, st->seq, callback, cargs, label, 0) < 0) {
        return NULL;
    }
    st->seq++;
    if (note_scheduled(st, 1) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
csim_post_in(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    static const char *const names[] = {"delay", "callback", "args", "label"};
    PyObject *a[4];
    csim_state *st = CSIM_ST(self);
    PyObject *delay, *callback, *cargs, *label, *time_obj;
    double dd, td;
    int err;
    if (fill_args("post_in", args, nargs, kwnames, names, 4, 2, a) < 0) {
        return NULL;
    }
    delay = a[0];
    callback = a[1];
    cargs = (a[2] == NULL || a[2] == Py_None) ? NULL : a[2];
    label = a[3] != NULL ? a[3] : str_empty;
    dd = as_double(delay, &err);
    if (err) {
        return NULL;
    }
    if (dd < 0.0) {
        PyObject *t = add_now_delay(st, delay, &td);
        if (t != NULL) {
            raise_schedule_in_past(t, st->now_obj);
            Py_DECREF(t);
        }
        return NULL;
    }
    time_obj = add_now_delay(st, delay, &td);
    if (time_obj == NULL) {
        return NULL;
    }
    if (heap_push(st, td, time_obj, st->seq, callback, cargs, label, 0) < 0) {
        Py_DECREF(time_obj);
        return NULL;
    }
    Py_DECREF(time_obj);
    st->seq++;
    if (note_scheduled(st, 1) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
csim_post_batch(PyObject *self, PyObject *events)
{
    csim_state *st = CSIM_ST(self);
    PyObject *fast;
    PyObject **items;
    Py_ssize_t n, i;
    fast = PySequence_Fast(
        events, "post_batch expects a sequence of (time, callback, args, label)");
    if (fast == NULL) {
        return NULL;
    }
    n = PySequence_Fast_GET_SIZE(fast);
    if (n == 0) {
        Py_DECREF(fast);
        Py_RETURN_NONE;
    }
    items = PySequence_Fast_ITEMS(fast);
    /* Validate the whole batch up front: like the pure engine, a
     * time-in-the-past item rejects the batch atomically. */
    for (i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast(
            items[i], "post_batch items must be (time, callback, args, label)");
        double td;
        int err;
        if (item == NULL) {
            Py_DECREF(fast);
            return NULL;
        }
        if (PySequence_Fast_GET_SIZE(item) != 4) {
            Py_DECREF(item);
            Py_DECREF(fast);
            PyErr_SetString(
                PyExc_ValueError,
                "post_batch items must be (time, callback, args, label)");
            return NULL;
        }
        td = as_double(PySequence_Fast_ITEMS(item)[0], &err);
        if (err) {
            Py_DECREF(item);
            Py_DECREF(fast);
            return NULL;
        }
        if (td < st->now_d) {
            PyObject *t = Py_NewRef(PySequence_Fast_ITEMS(item)[0]);
            Py_DECREF(item);
            Py_DECREF(fast);
            raise_schedule_in_past(t, st->now_obj);
            Py_DECREF(t);
            return NULL;
        }
        Py_DECREF(item);
    }
    if (ensure_capacity(st, st->size + n) < 0) {
        Py_DECREF(fast);
        return NULL;
    }
    /* Same crossover as the pure engine: big batches append+heapify,
     * small ones sift in one by one.  Either way the heap pops in the
     * same (time, seq) order. */
    if (n * 4 >= st->size) {
        Py_ssize_t start = st->size;
        for (i = 0; i < n; i++) {
            PyObject *item = PySequence_Fast(items[i], "post_batch item");
            PyObject **f;
            entry_t *e;
            int err;
            if (item == NULL) {
                Py_DECREF(fast);
                return NULL;
            }
            f = PySequence_Fast_ITEMS(item);
            e = &st->entries[st->size];
            e->time = as_double(f[0], &err);
            e->seq = st->seq++;
            e->time_obj = Py_NewRef(f[0]);
            e->target = Py_NewRef(f[1]);
            e->args = f[2] == Py_None ? NULL : Py_NewRef(f[2]);
            e->label = Py_NewRef(f[3]);
            e->flags = 0;
            st->size++;
            Py_DECREF(item);
        }
        (void)start;
        for (i = st->size / 2 - 1; i >= 0; i--) {
            siftdown_entry(st->entries, st->size, i);
        }
    }
    else {
        for (i = 0; i < n; i++) {
            PyObject *item = PySequence_Fast(items[i], "post_batch item");
            PyObject **f;
            int err, r;
            double td;
            if (item == NULL) {
                Py_DECREF(fast);
                return NULL;
            }
            f = PySequence_Fast_ITEMS(item);
            td = as_double(f[0], &err);
            r = heap_push(st, td, f[0], st->seq,
                          f[1], f[2] == Py_None ? NULL : f[2], f[3], 0);
            Py_DECREF(item);
            if (r < 0) {
                Py_DECREF(fast);
                return NULL;
            }
            st->seq++;
        }
    }
    Py_DECREF(fast);
    if (note_scheduled(st, n) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* Internal scheduler entry for Link: post_in with a prebuilt single
 * argument, no Python-call overhead at all on the common path.         */
static int
c_post_in_single(csim_state *st, double delay, PyObject *callback,
                 PyObject *arg, PyObject *label)
{
    PyObject *time_obj, *args;
    double td;
    int r;
    if (delay < 0.0) {
        PyObject *d = PyFloat_FromDouble(delay);
        PyObject *t;
        if (d == NULL) {
            return -1;
        }
        t = add_now_delay(st, d, &td);
        Py_DECREF(d);
        if (t != NULL) {
            raise_schedule_in_past(t, st->now_obj);
            Py_DECREF(t);
        }
        return -1;
    }
    td = st->now_d + delay;
    time_obj = PyFloat_FromDouble(td);
    if (time_obj == NULL) {
        return -1;
    }
    args = PyTuple_Pack(1, arg);
    if (args == NULL) {
        Py_DECREF(time_obj);
        return -1;
    }
    r = heap_push(st, td, time_obj, st->seq, callback, args, label, 0);
    Py_DECREF(args);
    Py_DECREF(time_obj);
    if (r < 0) {
        return -1;
    }
    st->seq++;
    return note_scheduled(st, 1);
}

/* ---------------- execution --------------------------------------- */

/* Pop the next live entry due at or before until_d into *out.
 * Returns 1 on success, 0 when nothing is due, -1 never.  Cancelled
 * heads are popped and discarded on the way, exactly like the pure
 * loops.  The caller owns the refs in *out and must entry_decref it. */
static int
pop_due(csim_state *st, double until_d, entry_t *out, PyObject **callback)
{
    for (;;) {
        entry_t *root;
        if (st->size == 0) {
            return 0;
        }
        root = &st->entries[0];
        if (root->flags & EV_HANDLE) {
            PyObject *cb = SLOT(root->target, eh_callback);
            if (cb == NULL || cb == Py_None) {
                entry_t dead = *root;
                heap_remove_root(st);
                entry_decref(&dead);
                continue;
            }
            if (root->time > until_d) {
                return 0;
            }
            *out = *root;
            heap_remove_root(st);
            *callback = Py_NewRef(cb);
            /* mark dispatched */
            Py_XSETREF(SLOT(out->target, eh_callback), Py_NewRef(Py_None));
        }
        else {
            if (root->time > until_d) {
                return 0;
            }
            *out = *root;
            heap_remove_root(st);
            *callback = Py_NewRef(out->target);
        }
        st->live--;
        return 1;
    }
}

static PyObject *
csim_pop_due(PyObject *self, PyObject *until_cmp)
{
    csim_state *st = CSIM_ST(self);
    entry_t e;
    PyObject *callback = NULL;
    PyObject *result;
    double ud;
    int err, got;
    ud = as_double(until_cmp, &err);
    if (err) {
        return NULL;
    }
    got = pop_due(st, ud, &e, &callback);
    if (got == 0) {
        Py_RETURN_NONE;
    }
    result = PyTuple_Pack(4, e.time_obj, callback,
                          e.args != NULL ? e.args : Py_None, e.label);
    Py_DECREF(callback);
    entry_decref(&e);
    return result;
}

static PyObject *
run_fast(PyObject *self, PyObject *until)
{
    csim_state *st = CSIM_ST(self);
    long long dispatched;
    double until_d = 0.0;
    int bounded = (until != NULL && until != Py_None);
    if (bounded) {
        int err;
        until_d = as_double(until, &err);
        if (err) {
            return NULL;
        }
    }
    if (st->running) {
        PyErr_SetString(exc_simulation_error,
                        "Simulator.run() is not reentrant");
        return NULL;
    }
    st->running = 1;
    dispatched = st->dispatched;
    for (;;) {
        entry_t e;
        PyObject *callback, *res;
        if (st->size == 0) {
            break;
        }
        {
            entry_t *root = &st->entries[0];
            if (root->flags & EV_HANDLE) {
                PyObject *cb = SLOT(root->target, eh_callback);
                if (cb == NULL || cb == Py_None) {
                    entry_t dead = *root;
                    heap_remove_root(st);
                    entry_decref(&dead);
                    continue;
                }
                if (bounded && root->time > until_d) {
                    break;
                }
                e = *root;
                heap_remove_root(st);
                callback = Py_NewRef(cb);
                Py_XSETREF(SLOT(e.target, eh_callback), Py_NewRef(Py_None));
            }
            else {
                if (bounded && root->time > until_d) {
                    break;
                }
                e = *root;
                heap_remove_root(st);
                callback = Py_NewRef(e.target);
            }
        }
        st->live--;
        Py_XSETREF(st->now_obj, Py_NewRef(e.time_obj));
        st->now_d = e.time;
        res = call_event(callback, e.args);
        Py_DECREF(callback);
        entry_decref(&e);
        if (res == NULL) {
            st->dispatched = dispatched;
            st->running = 0;
            return NULL;
        }
        Py_DECREF(res);
        dispatched++;
    }
    if (bounded && st->now_d < until_d) {
        Py_XSETREF(st->now_obj, Py_NewRef(until));
        st->now_d = until_d;
    }
    st->dispatched = dispatched;
    st->running = 0;
    Py_RETURN_NONE;
}

static PyObject *
csim_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
         PyObject *kwnames)
{
    static const char *const names[] = {
        "until", "max_events", "deadline", "livelock_threshold"};
    PyObject *a[4];
    csim_state *st = CSIM_ST(self);
    int sanitize_true;
    Py_ssize_t i;
    if (fill_args("run", args, nargs, kwnames, names, 4, 0, a) < 0) {
        return NULL;
    }
    for (i = 0; i < 4; i++) {
        if (a[i] == NULL) {
            a[i] = Py_None;
        }
    }
    sanitize_true =
        st->sanitize == NULL ? 0 : PyObject_IsTrue(st->sanitize);
    if (sanitize_true < 0) {
        return NULL;
    }
    if (a[1] != Py_None || a[2] != Py_None || a[3] != Py_None || sanitize_true
        || (st->profile != NULL && st->profile != Py_None)) {
        /* Checked path: watchdogs / profiling / sanitizer run in the one
         * Python loop both builds share, over the C _pop_due. */
        if (run_checked_fn == NULL) {
            PyObject *mod = PyImport_ImportModule("repro.sim.engine");
            if (mod == NULL) {
                return NULL;
            }
            run_checked_fn = PyObject_GetAttrString(mod, "_run_checked");
            Py_DECREF(mod);
            if (run_checked_fn == NULL) {
                return NULL;
            }
        }
        return PyObject_CallFunctionObjArgs(run_checked_fn, self, a[0], a[1],
                                            a[2], a[3], NULL);
    }
    return run_fast(self, a[0]);
}

static PyObject *
csim_peek_time(PyObject *self, PyObject *ignored)
{
    csim_state *st = CSIM_ST(self);
    (void)ignored;
    for (;;) {
        entry_t *root;
        if (st->size == 0) {
            Py_RETURN_NONE;
        }
        root = &st->entries[0];
        if (root->flags & EV_HANDLE) {
            PyObject *cb = SLOT(root->target, eh_callback);
            if (cb == NULL || cb == Py_None) {
                entry_t dead = *root;
                heap_remove_root(st);
                entry_decref(&dead);
                continue;
            }
        }
        return Py_NewRef(root->time_obj);
    }
}

/* Engine-portable pickling: never pickle by class reference, so a
 * checkpoint written by a compiled build loads on a pure-only checkout
 * (and vice versa).  State rides the ordinary slot-state protocol. */
static PyObject *
reduce_via(PyObject *self, PyObject **fn_cache, const char *fn_name)
{
    PyObject *state, *result;
    if (*fn_cache == NULL) {
        PyObject *mod = PyImport_ImportModule("repro.core.engine_select");
        if (mod == NULL) {
            return NULL;
        }
        *fn_cache = PyObject_GetAttrString(mod, fn_name);
        Py_DECREF(mod);
        if (*fn_cache == NULL) {
            return NULL;
        }
    }
    state = PyObject_CallMethodNoArgs(self, str_getstate);
    if (state == NULL) {
        return NULL;
    }
    result = PyTuple_Pack(3, *fn_cache, empty_tuple, state);
    Py_DECREF(state);
    return result;
}

static PyObject *
csim_reduce_ex(PyObject *self, PyObject *protocol)
{
    (void)protocol;
    return reduce_via(self, &unpickle_sim_fn, "_unpickle_simulator");
}

static PyMethodDef csim_methods[] = {
    {"reserve_seq", (PyCFunction)csim_reserve_seq, METH_NOARGS, NULL},
    {"schedule", (PyCFunction)(void (*)(void))csim_schedule,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"post", (PyCFunction)(void (*)(void))csim_post,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"post_in", (PyCFunction)(void (*)(void))csim_post_in,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"post_batch", (PyCFunction)csim_post_batch, METH_O, NULL},
    {"run", (PyCFunction)(void (*)(void))csim_run,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"peek_time", (PyCFunction)csim_peek_time, METH_NOARGS, NULL},
    {"_pop_due", (PyCFunction)csim_pop_due, METH_O, NULL},
    {"__reduce_ex__", (PyCFunction)csim_reduce_ex, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

/* ---------------- gc / lifecycle ----------------------------------- */
static int
csim_traverse(PyObject *self, visitproc visit, void *arg)
{
    csim_state *st = CSIM_ST(self);
    Py_ssize_t i;
    for (i = 0; i < st->size; i++) {
        Py_VISIT(st->entries[i].time_obj);
        Py_VISIT(st->entries[i].target);
        Py_VISIT(st->entries[i].args);
        Py_VISIT(st->entries[i].label);
    }
    Py_VISIT(st->now_obj);
    Py_VISIT(st->rng);
    Py_VISIT(st->sanitize);
    Py_VISIT(st->profile);
    Py_VISIT(st->components);
    /* Shadowed base slot storage is normally never populated, but stay
     * defensive; heap-type instances must also visit their type.  Do
     * NOT chain to the base tp_traverse: for a pure-python base that is
     * subtype_traverse, which re-dispatches on Py_TYPE(self) and would
     * recurse right back here. */
    for (i = 0; i < NUM_SIM_BASE_SLOTS; i++) {
        Py_VISIT(SLOT(self, sim_base_slot_off[i]));
    }
    Py_VISIT(Py_TYPE(self));
    return 0;
}

static int
csim_clear(PyObject *self)
{
    csim_state *st = CSIM_ST(self);
    Py_ssize_t i;
    clear_entries(st);
    Py_CLEAR(st->now_obj);
    Py_CLEAR(st->rng);
    Py_CLEAR(st->sanitize);
    Py_CLEAR(st->profile);
    Py_CLEAR(st->components);
    for (i = 0; i < NUM_SIM_BASE_SLOTS; i++) {
        Py_CLEAR(SLOT(self, sim_base_slot_off[i]));
    }
    return 0;
}

static void
csim_dealloc(PyObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    csim_state *st = CSIM_ST(self);
    Py_ssize_t i;
    PyObject_GC_UnTrack(self);
    Py_TRASHCAN_BEGIN(self, csim_dealloc);
    clear_entries(st);
    Py_CLEAR(st->now_obj);
    Py_CLEAR(st->rng);
    Py_CLEAR(st->sanitize);
    Py_CLEAR(st->profile);
    Py_CLEAR(st->components);
    /* Shadowed base slots are normally never populated; clear them
     * defensively in case someone wrote through the base descriptors. */
    for (i = 0; i < NUM_SIM_BASE_SLOTS; i++) {
        Py_CLEAR(SLOT(self, sim_base_slot_off[i]));
    }
    tp->tp_free(self);
    Py_DECREF(tp);
    Py_TRASHCAN_END;
}

static PyType_Slot csim_type_slots[] = {
    {Py_tp_traverse, (void *)csim_traverse},
    {Py_tp_clear, (void *)csim_clear},
    {Py_tp_dealloc, (void *)csim_dealloc},
    {Py_tp_methods, (void *)csim_methods},
    {Py_tp_getset, (void *)csim_getsets},
    {0, NULL},
};

static PyType_Spec csim_spec = {
    "repro._cext._core.Simulator",
    0, /* basicsize: fixed up at runtime to base + sizeof(csim_state) */
    0,
    Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    csim_type_slots,
};

/* ================================================================== */
/* Link                                                                */
/* ================================================================== */

/* PyLong slot increment: slot = slot + delta (slots hold object ints). */
static int
slot_add_ll(PyObject *obj, Py_ssize_t off, long long delta)
{
    PyObject *old = SLOT(obj, off);
    long long v;
    PyObject *nv;
    if (old == NULL) {
        PyErr_SetString(PyExc_AttributeError, "counter is not set");
        return -1;
    }
    v = PyLong_AsLongLong(old);
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    nv = PyLong_FromLongLong(v + delta);
    if (nv == NULL) {
        return -1;
    }
    Py_XSETREF(SLOT(obj, off), nv);
    return 0;
}

static PyObject *clink_start_impl(PyObject *self, PyObject *packet);

/* DropTail push fast path.  Returns 1 accepted, 0 dropped, -1 error.
 * Falls back to the Python push for anything unusual (RED, observers,
 * a full queue -- the reject path counts and reports in Python).      */
static int
queue_push_fast(PyObject *queue, PyObject *packet)
{
    if (Py_TYPE(queue) == droptail_type && SLOT(queue, q_obs) == Py_None) {
        PyObject *buf = SLOT(queue, q_buffer);
        PyObject *cap_obj = SLOT(queue, q_capacity);
        Py_ssize_t blen;
        long long cap;
        PyObject *r;
        if (buf == NULL || cap_obj == NULL) {
            goto generic;
        }
        blen = PyObject_Size(buf);
        if (blen < 0) {
            return -1;
        }
        cap = PyLong_AsLongLong(cap_obj);
        if (cap == -1 && PyErr_Occurred()) {
            return -1;
        }
        if (blen >= cap) {
            goto generic; /* reject path: counters + obs in Python */
        }
        r = PyObject_CallFunctionObjArgs(deque_append, buf, packet, NULL);
        if (r == NULL) {
            return -1;
        }
        Py_DECREF(r);
        if (slot_add_ll(queue, q_enqueued, 1) < 0) {
            return -1;
        }
        {
            PyObject *mo = SLOT(queue, q_maxocc);
            long long m = mo == NULL ? 0 : PyLong_AsLongLong(mo);
            if (m == -1 && PyErr_Occurred()) {
                return -1;
            }
            if (blen + 1 > m) {
                PyObject *nv = PyLong_FromLongLong(blen + 1);
                if (nv == NULL) {
                    return -1;
                }
                Py_XSETREF(SLOT(queue, q_maxocc), nv);
            }
        }
        return 1;
    }
generic:
    {
        PyObject *r = PyObject_CallMethodObjArgs(queue, str_push, packet, NULL);
        int t;
        if (r == NULL) {
            return -1;
        }
        t = PyObject_IsTrue(r);
        Py_DECREF(r);
        return t;
    }
}

/* FIFO pop fast path; returns a new reference (Py_None when empty).    */
static PyObject *
queue_pop_fast(PyObject *queue)
{
    if (Py_TYPE(queue) == droptail_type && SLOT(queue, q_obs) == Py_None) {
        PyObject *buf = SLOT(queue, q_buffer);
        Py_ssize_t blen;
        if (buf != NULL) {
            blen = PyObject_Size(buf);
            if (blen < 0) {
                return NULL;
            }
            if (blen == 0) {
                Py_RETURN_NONE;
            }
            return PyObject_CallFunctionObjArgs(deque_popleft, buf, NULL);
        }
    }
    return PyObject_CallMethodObjArgs(queue, str_pop, NULL);
}

static PyObject *
clink_enqueue(PyObject *self, PyObject *packet)
{
    PyObject *up = SLOT(self, lk_up);
    PyObject *flr = SLOT(self, lk_fault_rate);
    PyObject *lm = SLOT(self, lk_loss_model);
    PyObject *busy;
    /* Any fault/loss condition -> the pure method handles everything
     * (it re-does the arrival count, which we have not touched yet). */
    if (up != Py_True || lm != Py_None || flr == NULL
        || !PyFloat_CheckExact(flr) || PyFloat_AS_DOUBLE(flr) != 0.0) {
        return PyObject_CallFunctionObjArgs(pure_link_enqueue, self, packet,
                                            NULL);
    }
    if (slot_add_ll(self, lk_arrived, 1) < 0) {
        return NULL;
    }
    busy = SLOT(self, lk_busy);
    if (busy == Py_True) {
        int pushed = queue_push_fast(SLOT(self, lk_queue), packet);
        if (pushed < 0) {
            return NULL;
        }
        if (pushed == 0) {
            return PyObject_CallMethodObjArgs(self, str_notify_drop, packet,
                                              NULL);
        }
        Py_RETURN_NONE;
    }
    if (busy != Py_False) {
        int b = PyObject_IsTrue(busy);
        if (b < 0) {
            return NULL;
        }
        if (b) {
            int pushed = queue_push_fast(SLOT(self, lk_queue), packet);
            if (pushed < 0) {
                return NULL;
            }
            if (pushed == 0) {
                return PyObject_CallMethodObjArgs(self, str_notify_drop,
                                                  packet, NULL);
            }
            Py_RETURN_NONE;
        }
    }
    return clink_start_impl(self, packet);
}

static PyObject *
clink_start_impl(PyObject *self, PyObject *packet)
{
    PyObject *size_obj = SLOT(packet, pk_size_bytes);
    PyObject *inv_obj = SLOT(self, lk_inv_bw);
    PyObject *sim = SLOT(self, lk_sim);
    double size, inv;
    int err;
    Py_XSETREF(SLOT(self, lk_busy), Py_NewRef(Py_True));
    if (size_obj == NULL || inv_obj == NULL || sim == NULL) {
        PyErr_SetString(PyExc_AttributeError, "link is not fully initialized");
        return NULL;
    }
    size = as_double(size_obj, &err);
    if (err) {
        return NULL;
    }
    inv = as_double(inv_obj, &err);
    if (err) {
        return NULL;
    }
    if (Py_IS_TYPE(sim, (PyTypeObject *)csim_type_obj)) {
        if (c_post_in_single(CSIM_ST(sim), size * inv,
                             SLOT(self, lk_finish_cb), packet,
                             SLOT(self, lk_label_tx)) < 0) {
            return NULL;
        }
        Py_RETURN_NONE;
    }
    {
        /* Mixed wiring (pure simulator, compiled link): go through the
         * cached bound post_in exactly like the pure method. */
        PyObject *delay = PyFloat_FromDouble(size * inv);
        PyObject *args, *r;
        if (delay == NULL) {
            return NULL;
        }
        args = PyTuple_Pack(1, packet);
        if (args == NULL) {
            Py_DECREF(delay);
            return NULL;
        }
        r = PyObject_CallFunctionObjArgs(SLOT(self, lk_post_in), delay,
                                         SLOT(self, lk_finish_cb), args,
                                         SLOT(self, lk_label_tx), NULL);
        Py_DECREF(args);
        Py_DECREF(delay);
        if (r == NULL) {
            return NULL;
        }
        Py_DECREF(r);
        Py_RETURN_NONE;
    }
}

static PyObject *
clink_start_transmission(PyObject *self, PyObject *packet)
{
    return clink_start_impl(self, packet);
}

static PyObject *
clink_finish_transmission(PyObject *self, PyObject *packet)
{
    PyObject *size_obj = SLOT(packet, pk_size_bytes);
    PyObject *dm, *sim, *dst, *receive, *next;
    double delay, scale, pdelay;
    long long size;
    int err;
    if (size_obj == NULL) {
        PyErr_SetString(PyExc_AttributeError, "size_bytes");
        return NULL;
    }
    size = PyLong_AsLongLong(size_obj);
    if (size == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (slot_add_ll(self, lk_tx_packets, 1) < 0
        || slot_add_ll(self, lk_tx_bytes, size) < 0
        || slot_add_ll(packet, pk_hops, 1) < 0) {
        return NULL;
    }
    dm = SLOT(self, lk_delay_model);
    if (dm == NULL || dm == Py_None) {
        delay = as_double(SLOT(self, lk_delay), &err);
        if (err) {
            return NULL;
        }
    }
    else {
        PyObject *r = PyObject_CallMethodObjArgs(dm, str_delay_for, packet,
                                                 NULL);
        if (r == NULL) {
            return NULL;
        }
        delay = as_double(r, &err);
        Py_DECREF(r);
        if (err) {
            return NULL;
        }
    }
    scale = as_double(SLOT(self, lk_delay_scale), &err);
    if (err) {
        return NULL;
    }
    pdelay = delay * scale;
    dst = SLOT(self, lk_dst);
    /* Per-event lookup on purpose: repro.obs.trace patches dst.receive. */
    receive = PyObject_GetAttr(dst, str_receive);
    if (receive == NULL) {
        return NULL;
    }
    sim = SLOT(self, lk_sim);
    if (Py_IS_TYPE(sim, (PyTypeObject *)csim_type_obj)) {
        if (c_post_in_single(CSIM_ST(sim), pdelay, receive, packet,
                             SLOT(self, lk_label_rx)) < 0) {
            Py_DECREF(receive);
            return NULL;
        }
    }
    else {
        PyObject *d = PyFloat_FromDouble(pdelay);
        PyObject *args, *r;
        if (d == NULL) {
            Py_DECREF(receive);
            return NULL;
        }
        args = PyTuple_Pack(1, packet);
        if (args == NULL) {
            Py_DECREF(d);
            Py_DECREF(receive);
            return NULL;
        }
        r = PyObject_CallFunctionObjArgs(SLOT(self, lk_post_in), d, receive,
                                         args, SLOT(self, lk_label_rx), NULL);
        Py_DECREF(args);
        Py_DECREF(d);
        if (r == NULL) {
            Py_DECREF(receive);
            return NULL;
        }
        Py_DECREF(r);
    }
    Py_DECREF(receive);
    if (SLOT(self, lk_up) != Py_True) {
        /* Link died mid-serialization: hold the queue. */
        Py_XSETREF(SLOT(self, lk_busy), Py_NewRef(Py_False));
        Py_RETURN_NONE;
    }
    next = queue_pop_fast(SLOT(self, lk_queue));
    if (next == NULL) {
        return NULL;
    }
    if (next == Py_None) {
        Py_DECREF(next);
        Py_XSETREF(SLOT(self, lk_busy), Py_NewRef(Py_False));
        Py_RETURN_NONE;
    }
    {
        PyObject *r = clink_start_impl(self, next);
        Py_DECREF(next);
        return r;
    }
}

static PyObject *
clink_reduce_ex(PyObject *self, PyObject *protocol)
{
    (void)protocol;
    return reduce_via(self, &unpickle_link_fn, "_unpickle_link");
}

static PyMethodDef clink_method_defs[] = {
    {"enqueue", (PyCFunction)clink_enqueue, METH_O, NULL},
    {"_start_transmission", (PyCFunction)clink_start_transmission, METH_O,
     NULL},
    {"_finish_transmission", (PyCFunction)clink_finish_transmission, METH_O,
     NULL},
    {"__reduce_ex__", (PyCFunction)clink_reduce_ex, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

/* ================================================================== */
/* Node                                                                */
/* ================================================================== */

static PyObject *
node_dead_letter(PyObject *self)
{
    PyObject *v = PyObject_GetAttr(self, str_dead_letters);
    long long n;
    PyObject *nv;
    int r;
    if (v == NULL) {
        return NULL;
    }
    n = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (n == -1 && PyErr_Occurred()) {
        return NULL;
    }
    nv = PyLong_FromLongLong(n + 1);
    if (nv == NULL) {
        return NULL;
    }
    r = PyObject_SetAttr(self, str_dead_letters, nv);
    Py_DECREF(nv);
    if (r < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* ``mapping.get(key)`` — C-level for exact dicts (the only case the
 * codebase produces), the real method otherwise.  New reference;
 * Py_None on a missing key, matching dict.get's default. */
static PyObject *
mapping_get(PyObject *mapping, PyObject *key)
{
    if (PyDict_CheckExact(mapping)) {
        PyObject *v = PyDict_GetItemWithError(mapping, key);
        if (v == NULL) {
            if (PyErr_Occurred()) {
                return NULL;
            }
            Py_RETURN_NONE;
        }
        return Py_NewRef(v);
    }
    return PyObject_CallMethodObjArgs(mapping, str_get, key, NULL);
}

static PyObject *
link_enqueue_dispatch(PyObject *link, PyObject *packet)
{
    if (Py_IS_TYPE(link, (PyTypeObject *)clink_type_obj)) {
        return clink_enqueue(link, packet);
    }
    {
        PyObject *r = PyObject_CallMethodObjArgs(link, str_enqueue, packet,
                                                 NULL);
        if (r == NULL) {
            return NULL;
        }
        Py_DECREF(r);
        Py_RETURN_NONE;
    }
}

/* Destination-table forwarding — the inlined pure expression
 * ``links.get(routes.get(packet.dst))`` with dead-letter on None.      */
static PyObject *
cnode_forward_table(PyObject *self, PyObject *packet)
{
    PyObject *routes, *links, *hop, *link, *r;
    routes = PyObject_GetAttr(self, str_routes);
    if (routes == NULL) {
        return NULL;
    }
    hop = mapping_get(routes, SLOT(packet, pk_dst));
    Py_DECREF(routes);
    if (hop == NULL) {
        return NULL;
    }
    if (hop == Py_None) {
        Py_DECREF(hop);
        return node_dead_letter(self);
    }
    links = PyObject_GetAttr(self, str_links);
    if (links == NULL) {
        Py_DECREF(hop);
        return NULL;
    }
    link = mapping_get(links, hop);
    Py_DECREF(links);
    Py_DECREF(hop);
    if (link == NULL) {
        return NULL;
    }
    if (link == Py_None) {
        Py_DECREF(link);
        return node_dead_letter(self);
    }
    r = link_enqueue_dispatch(link, packet);
    Py_DECREF(link);
    return r;
}

/* _next_hop + link dispatch for exotic cases (non-list source routes). */
static PyObject *
cnode_forward_generic(PyObject *self, PyObject *packet)
{
    PyObject *hop =
        PyObject_CallFunctionObjArgs(pure_node_next_hop, self, packet, NULL);
    PyObject *links, *link, *r;
    if (hop == NULL) {
        return NULL;
    }
    if (hop == Py_None) {
        Py_DECREF(hop);
        return node_dead_letter(self);
    }
    links = PyObject_GetAttr(self, str_links);
    if (links == NULL) {
        Py_DECREF(hop);
        return NULL;
    }
    link = mapping_get(links, hop);
    Py_DECREF(links);
    Py_DECREF(hop);
    if (link == NULL) {
        return NULL;
    }
    if (link == Py_None) {
        Py_DECREF(link);
        return node_dead_letter(self);
    }
    r = link_enqueue_dispatch(link, packet);
    Py_DECREF(link);
    return r;
}

/* Intact-source-route forwarding (the fig6 multipath hot path).        */
static PyObject *
cnode_forward_route(PyObject *self, PyObject *packet, PyObject *route)
{
    PyObject *idx_obj = SLOT(packet, pk_route_index);
    PyObject *name, *next_name, *links, *link, *r;
    long long index;
    Py_ssize_t rlen;
    int eq;
    if (!PyList_CheckExact(route)) {
        return cnode_forward_generic(self, packet);
    }
    if (idx_obj == NULL) {
        PyErr_SetString(PyExc_AttributeError, "route_index");
        return NULL;
    }
    index = PyLong_AsLongLong(idx_obj);
    if (index == -1 && PyErr_Occurred()) {
        return NULL;
    }
    rlen = PyList_GET_SIZE(route);
    if (index < 0 || index + 1 >= rlen) {
        return cnode_forward_table(self, packet); /* broken route fallback */
    }
    name = PyObject_GetAttr(self, str_name);
    if (name == NULL) {
        return NULL;
    }
    {
        PyObject *cur = PyList_GET_ITEM(route, (Py_ssize_t)index);
        eq = (cur == name)
                 ? 1
                 : PyObject_RichCompareBool(cur, name, Py_EQ);
    }
    Py_DECREF(name);
    if (eq < 0) {
        return NULL;
    }
    if (!eq) {
        return cnode_forward_table(self, packet); /* broken route fallback */
    }
    next_name = PyList_GET_ITEM(route, (Py_ssize_t)index + 1);
    links = PyObject_GetAttr(self, str_links);
    if (links == NULL) {
        return NULL;
    }
    link = mapping_get(links, next_name);
    Py_DECREF(links);
    if (link == NULL) {
        return NULL;
    }
    if (link == Py_None) {
        Py_DECREF(link);
        return node_dead_letter(self);
    }
    r = link_enqueue_dispatch(link, packet);
    Py_DECREF(link);
    return r;
}

/* Deliver to the local agent for packet.flow_id, or dead-letter.       */
static PyObject *
cnode_deliver_local(PyObject *self, PyObject *packet)
{
    PyObject *agents = PyObject_GetAttr(self, str_agents);
    PyObject *agent, *recv, *r;
    if (agents == NULL) {
        return NULL;
    }
    agent = mapping_get(agents, SLOT(packet, pk_flow_id));
    Py_DECREF(agents);
    if (agent == NULL) {
        return NULL;
    }
    if (agent == Py_None) {
        Py_DECREF(agent);
        return node_dead_letter(self);
    }
    recv = PyObject_GetAttr(agent, str_receive);
    Py_DECREF(agent);
    if (recv == NULL) {
        return NULL;
    }
    r = PyObject_CallOneArg(recv, packet);
    Py_DECREF(recv);
    if (r == NULL) {
        return NULL;
    }
    Py_DECREF(r);
    Py_RETURN_NONE;
}

static PyObject *
cnode_receive(PyObject *self, PyObject *packet)
{
    PyObject *route = SLOT(packet, pk_route);
    PyObject *dst, *name;
    int is_local;
    if (route == NULL) {
        return PyObject_CallFunctionObjArgs(pure_node_receive, self, packet,
                                            NULL);
    }
    if (route != Py_None) {
        if (slot_add_ll(packet, pk_route_index, 1) < 0) {
            return NULL;
        }
    }
    dst = SLOT(packet, pk_dst);
    name = PyObject_GetAttr(self, str_name);
    if (name == NULL) {
        return NULL;
    }
    is_local = (dst == name) ? 1 : PyObject_RichCompareBool(dst, name, Py_EQ);
    Py_DECREF(name);
    if (is_local < 0) {
        return NULL;
    }
    if (is_local) {
        return cnode_deliver_local(self, packet);
    }
    if (route != Py_None) {
        return cnode_forward_route(self, packet, route);
    }
    return cnode_forward_table(self, packet);
}

static PyObject *
cnode_forward(PyObject *self, PyObject *packet)
{
    PyObject *route = SLOT(packet, pk_route);
    if (route != NULL && route != Py_None) {
        return cnode_forward_route(self, packet, route);
    }
    return cnode_forward_table(self, packet);
}

static PyObject *
cnode_reduce_ex(PyObject *self, PyObject *protocol)
{
    (void)protocol;
    return reduce_via(self, &unpickle_node_fn, "_unpickle_node");
}

static PyMethodDef cnode_method_defs[] = {
    {"receive", (PyCFunction)cnode_receive, METH_O, NULL},
    {"_forward", (PyCFunction)cnode_forward, METH_O, NULL},
    {"__reduce_ex__", (PyCFunction)cnode_reduce_ex, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

/* ================================================================== */
/* Module init                                                         */
/* ================================================================== */
static Py_ssize_t
slot_offset(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    Py_ssize_t off;
    if (descr == NULL) {
        return -1;
    }
    if (!Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a slot member descriptor (%s)",
                     ((PyTypeObject *)type)->tp_name, name,
                     Py_TYPE(descr)->tp_name);
        Py_DECREF(descr);
        return -1;
    }
    off = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return off;
}

static PyObject *
import_attr(const char *module, const char *attr)
{
    PyObject *mod = PyImport_ImportModule(module);
    PyObject *obj;
    if (mod == NULL) {
        return NULL;
    }
    obj = PyObject_GetAttrString(mod, attr);
    Py_DECREF(mod);
    return obj;
}

static PyObject *
intern_str(const char *s)
{
    return PyUnicode_InternFromString(s);
}

/* Create a plain Python subclass of `base` named `name` and inject the
 * given C methods as method descriptors -- the subclass behaves exactly
 * like `class name(base): ...` with C-speed methods. */
static PyObject *
make_py_subclass(const char *name, PyObject *base, PyMethodDef *defs,
                 int add_empty_slots)
{
    PyObject *bases = PyTuple_Pack(1, base);
    PyObject *ns, *cls = NULL;
    PyMethodDef *def;
    if (bases == NULL) {
        return NULL;
    }
    ns = PyDict_New();
    if (ns == NULL) {
        Py_DECREF(bases);
        return NULL;
    }
    {
        PyObject *modname = PyUnicode_FromString("repro._cext._core");
        int r;
        if (modname == NULL) {
            goto done;
        }
        r = PyDict_SetItemString(ns, "__module__", modname);
        Py_DECREF(modname);
        if (r < 0) {
            goto done;
        }
    }
    if (add_empty_slots) {
        PyObject *slots = PyTuple_New(0);
        int r;
        if (slots == NULL) {
            goto done;
        }
        r = PyDict_SetItemString(ns, "__slots__", slots);
        Py_DECREF(slots);
        if (r < 0) {
            goto done;
        }
    }
    cls = PyObject_CallFunction((PyObject *)&PyType_Type, "s(O)O", name, base,
                                ns);
    if (cls == NULL) {
        goto done;
    }
    for (def = defs; def->ml_name != NULL; def++) {
        PyObject *descr = PyDescr_NewMethod((PyTypeObject *)cls, def);
        int r;
        if (descr == NULL) {
            Py_CLEAR(cls);
            goto done;
        }
        r = PyDict_SetItemString(((PyTypeObject *)cls)->tp_dict, def->ml_name,
                                 descr);
        Py_DECREF(descr);
        if (r < 0) {
            Py_CLEAR(cls);
            goto done;
        }
    }
    PyType_Modified((PyTypeObject *)cls);
done:
    Py_DECREF(ns);
    Py_DECREF(bases);
    return cls;
}

static int
core_exec(PyObject *module)
{
    PyObject *events_mod_cls = NULL, *queues_cls = NULL, *packet_cls = NULL;
    PyObject *bases = NULL;

    if ((pure_simulator = import_attr("repro.sim.engine", "Simulator")) == NULL
        || (pure_link = import_attr("repro.net.link", "Link")) == NULL
        || (pure_node = import_attr("repro.net.node", "Node")) == NULL
        || (events_mod_cls =
                import_attr("repro.sim.events", "EventHandle")) == NULL
        || (queues_cls =
                import_attr("repro.net.queues", "DropTailQueue")) == NULL
        || (packet_cls = import_attr("repro.net.packet", "Packet")) == NULL
        || (exc_schedule_in_past =
                import_attr("repro.sim.errors", "ScheduleInPastError")) == NULL
        || (exc_simulation_error =
                import_attr("repro.sim.errors", "SimulationError")) == NULL) {
        goto fail;
    }
    event_handle_type = (PyTypeObject *)events_mod_cls;
    droptail_type = (PyTypeObject *)queues_cls;

    if ((empty_tuple = PyTuple_New(0)) == NULL
        || (str_empty = intern_str("")) == NULL
        || (str_heap_high_water = intern_str("heap_high_water")) == NULL
        || (str_receive = intern_str("receive")) == NULL
        || (str_name = intern_str("name")) == NULL
        || (str_agents = intern_str("agents")) == NULL
        || (str_links = intern_str("links")) == NULL
        || (str_routes = intern_str("routes")) == NULL
        || (str_dead_letters = intern_str("dead_letters")) == NULL
        || (str_enqueue = intern_str("enqueue")) == NULL
        || (str_push = intern_str("push")) == NULL
        || (str_pop = intern_str("pop")) == NULL
        || (str_get = intern_str("get")) == NULL
        || (str_delay_for = intern_str("delay_for")) == NULL
        || (str_getstate = intern_str("__getstate__")) == NULL
        || (str_notify_drop = intern_str("_notify_drop")) == NULL
        || (str_post_in = intern_str("post_in")) == NULL) {
        goto fail;
    }

    {
        PyObject *collections = PyImport_ImportModule("collections");
        PyObject *deque_type;
        if (collections == NULL) {
            goto fail;
        }
        deque_type = PyObject_GetAttrString(collections, "deque");
        Py_DECREF(collections);
        if (deque_type == NULL) {
            goto fail;
        }
        deque_append = PyObject_GetAttrString(deque_type, "append");
        deque_popleft = PyObject_GetAttrString(deque_type, "popleft");
        Py_DECREF(deque_type);
        if (deque_append == NULL || deque_popleft == NULL) {
            goto fail;
        }
    }

    if ((pure_link_enqueue =
             PyObject_GetAttrString(pure_link, "enqueue")) == NULL
        || (pure_node_receive =
                PyObject_GetAttrString(pure_node, "receive")) == NULL
        || (pure_node_next_hop =
                PyObject_GetAttrString(pure_node, "_next_hop")) == NULL) {
        goto fail;
    }

    /* ---- slot offsets ------------------------------------------- */
    {
        static const char *const sim_slots[NUM_SIM_BASE_SLOTS] = {
            "now",   "rng",      "sanitize", "_heap",    "_seq",
            "_dispatched", "_live", "_running", "_profile", "_components"};
        int i;
        for (i = 0; i < NUM_SIM_BASE_SLOTS; i++) {
            sim_base_slot_off[i] = slot_offset(pure_simulator, sim_slots[i]);
            if (sim_base_slot_off[i] < 0) {
                goto fail;
            }
        }
    }
#define RESOLVE(var, cls, name)                                               \
    do {                                                                      \
        var = slot_offset(cls, name);                                         \
        if (var < 0) {                                                        \
            goto fail;                                                        \
        }                                                                     \
    } while (0)

    RESOLVE(eh_time, events_mod_cls, "time");
    RESOLVE(eh_seq, events_mod_cls, "seq");
    RESOLVE(eh_callback, events_mod_cls, "callback");
    RESOLVE(eh_label, events_mod_cls, "label");
    RESOLVE(eh_owner, events_mod_cls, "_owner");

    RESOLVE(lk_sim, pure_link, "sim");
    RESOLVE(lk_dst, pure_link, "dst");
    RESOLVE(lk_delay, pure_link, "delay");
    RESOLVE(lk_queue, pure_link, "queue");
    RESOLVE(lk_loss_model, pure_link, "loss_model");
    RESOLVE(lk_delay_model, pure_link, "delay_model");
    RESOLVE(lk_finish_cb, pure_link, "_finish_cb");
    RESOLVE(lk_label_tx, pure_link, "_label_tx");
    RESOLVE(lk_label_rx, pure_link, "_label_rx");
    RESOLVE(lk_inv_bw, pure_link, "_inv_bandwidth");
    RESOLVE(lk_post_in, pure_link, "_post_in");
    RESOLVE(lk_busy, pure_link, "_busy");
    RESOLVE(lk_tx_packets, pure_link, "tx_packets");
    RESOLVE(lk_tx_bytes, pure_link, "tx_bytes");
    RESOLVE(lk_arrived, pure_link, "arrived_packets");
    RESOLVE(lk_up, pure_link, "up");
    RESOLVE(lk_delay_scale, pure_link, "delay_scale");
    RESOLVE(lk_fault_rate, pure_link, "fault_loss_rate");

    RESOLVE(pk_size_bytes, packet_cls, "size_bytes");
    RESOLVE(pk_hops, packet_cls, "hops");
    RESOLVE(pk_route, packet_cls, "route");
    RESOLVE(pk_route_index, packet_cls, "route_index");
    RESOLVE(pk_dst, packet_cls, "dst");
    RESOLVE(pk_flow_id, packet_cls, "flow_id");

    RESOLVE(q_capacity, queues_cls, "capacity");
    RESOLVE(q_buffer, queues_cls, "_buffer");
    RESOLVE(q_enqueued, queues_cls, "enqueued");
    RESOLVE(q_maxocc, queues_cls, "max_occupancy");
    RESOLVE(q_obs, queues_cls, "obs");
#undef RESOLVE

    /* ---- compiled Simulator (appended C state) ------------------- */
    {
        PyTypeObject *base = (PyTypeObject *)pure_simulator;
        csim_state_off = base->tp_basicsize;
        csim_spec.basicsize =
            (int)(base->tp_basicsize + (Py_ssize_t)sizeof(csim_state));
        bases = PyTuple_Pack(1, pure_simulator);
        if (bases == NULL) {
            goto fail;
        }
        csim_type_obj = PyType_FromSpecWithBases(&csim_spec, bases);
        Py_CLEAR(bases);
        if (csim_type_obj == NULL) {
            goto fail;
        }
    }

    /* ---- compiled Link / Node (plain subclasses, C methods) ------ */
    clink_type_obj = make_py_subclass("Link", pure_link, clink_method_defs, 1);
    if (clink_type_obj == NULL) {
        goto fail;
    }
    cnode_type_obj = make_py_subclass("Node", pure_node, cnode_method_defs, 0);
    if (cnode_type_obj == NULL) {
        goto fail;
    }

    if (PyModule_AddObjectRef(module, "Simulator", csim_type_obj) < 0
        || PyModule_AddObjectRef(module, "Link", clink_type_obj) < 0
        || PyModule_AddObjectRef(module, "Node", cnode_type_obj) < 0) {
        goto fail;
    }
    Py_CLEAR(packet_cls);
    return 0;
fail:
    Py_XDECREF(bases);
    Py_XDECREF(packet_cls);
    return -1;
}

static PyModuleDef_Slot core_slots[] = {
    {Py_mod_exec, (void *)core_exec},
    {0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "repro._cext._core",
    "C accelerator for the repro hot core (see docs/COMPILED.md).",
    0,
    NULL,
    core_slots,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModuleDef_Init(&core_module);
}
