"""Documentation-repo consistency: DESIGN.md's promises must hold.

DESIGN.md maps every paper experiment to a benchmark target and every
subsystem to modules; these tests keep those tables honest as the code
evolves.
"""

import ast
import collections
import functools
import glob
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _read(path):
    with open(os.path.join(ROOT, path)) as handle:
        return handle.read()


@functools.lru_cache(maxsize=None)
def _tree(path):
    """The AST of ``path`` (relative to the repository), parsed once
    per session; callers only read it."""
    return ast.parse(_read(path))


class TestDesignDocument:
    def test_design_md_exists_with_required_sections(self):
        text = _read("DESIGN.md")
        for heading in ("Substitutions", "System inventory",
                        "Per-experiment index"):
            assert heading in text, heading

    def test_every_bench_target_in_design_exists(self):
        text = _read("DESIGN.md")
        targets = re.findall(r"benchmarks/(bench_\w+\.py)", text)
        assert targets, "DESIGN.md must name benchmark targets"
        for target in targets:
            assert os.path.exists(os.path.join(ROOT, "benchmarks",
                                               target)), target

    def test_every_bench_file_covers_a_paper_item_or_ablation(self):
        bench_dir = os.path.join(ROOT, "benchmarks")
        for name in os.listdir(bench_dir):
            if not name.startswith("bench_"):
                continue
            body = _read(os.path.join("benchmarks", name))
            assert ("Figure" in body or "Table" in body
                    or "Ablation" in body or "Scalability" in body), name

    def test_design_modules_exist(self):
        text = _read("DESIGN.md")
        modules = re.findall(r"`repro/([\w/{},.]+)\.py`", text)
        flattened = []
        for match in modules:
            if "{" in match:
                prefix, rest = match.split("{", 1)
                names, _ = rest.split("}", 1)
                flattened.extend(prefix + n for n in names.split(","))
            else:
                flattened.append(match)
        assert flattened
        for module in flattened:
            path = os.path.join(ROOT, "src", "repro", module + ".py")
            assert os.path.exists(path), module


class TestReadme:
    def test_readme_examples_exist(self):
        text = _read("README.md")
        examples = re.findall(r"`(\w+\.py)`", text)
        for example in examples:
            assert os.path.exists(os.path.join(ROOT, "examples",
                                               example)), example

    def test_readme_quickstart_names_real_api(self):
        text = _read("README.md")
        import repro
        for name in ("GannsIndex", "BuildParams", "load_dataset",
                     "recall_at_k", "tune_search", "stream_batches"):
            assert name in text
            assert hasattr(repro, name)


def _prose_docs():
    """Every prose document: ``docs/*.md``, README.md and DESIGN.md."""
    docs = sorted(os.path.join("docs", name)
                  for name in os.listdir(os.path.join(ROOT, "docs"))
                  if name.endswith(".md"))
    return docs + ["README.md", "DESIGN.md"]


class TestPaperMapping:
    def test_mapping_doc_module_references_resolve(self):
        """Every backquoted dotted ``repro.`` name in the prose docs
        resolves, so a deleted or moved name cannot linger in them."""
        import importlib
        dotted_names = {(doc, dotted) for doc in _prose_docs()
                        for dotted in re.findall(r"`(repro(?:\.\w+)+)`",
                                                 _read(doc))}
        for doc, dotted in sorted(dotted_names):
            parts = dotted.split(".")
            # Resolve progressively: module path then attribute chain.
            module = None
            for split in range(len(parts), 0, -1):
                try:
                    module = importlib.import_module(
                        ".".join(parts[:split]))
                    remainder = parts[split:]
                    break
                except ImportError:
                    continue
            assert module is not None, (doc, dotted)
            obj = module
            for attr in remainder:
                assert hasattr(obj, attr), (doc, dotted)
                obj = getattr(obj, attr)

    def test_doc_path_name_references_resolve(self):
        """Every backquoted ``x.py::Name`` in the prose docs names a
        def, class or assignment in that file (``x.py`` relative to the
        repository, ``src/repro``, ``tests`` or ``benchmarks``)."""
        refs = {(doc, path, name) for doc in _prose_docs()
                for path, name in re.findall(r"`([\w/.]+\.py)::(\w+)",
                                             _read(doc))}
        assert refs
        for doc, path, name in sorted(refs):
            found = [os.path.join(base, path)
                     for base in ("", os.path.join("src", "repro"),
                                  "tests", "benchmarks")
                     if os.path.isfile(os.path.join(ROOT, base, path))]
            assert found, (doc, path)
            defined = set()
            for node in ast.walk(_tree(found[0])):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    defined.update(target.id for target in targets
                                   if isinstance(target, ast.Name))
            assert name in defined, (doc, f"{path}::{name}")

    def test_doc_paths_resolve(self):
        """Every backquoted ``dir/x.py`` in the prose docs names a file
        under the repository, ``src`` or ``src/repro``; a brace list
        (``repro/gpusim/{device,costs}.py``) names each of its files and
        a glob (``examples/*.py``) at least one."""
        paths = set()
        for doc in _prose_docs():
            for ref in re.findall(
                    r"`([\w/.{},*-]+/[\w{},*-]+\.py)(?:::[\w.]+)?`",
                    _read(doc)):
                if "{" in ref:
                    prefix, rest = ref.split("{", 1)
                    names, suffix = rest.split("}", 1)
                    paths.update((doc, prefix + name + suffix)
                                 for name in names.split(","))
                else:
                    paths.add((doc, ref))
        assert len(paths) > 100
        dangling = sorted(
            (doc, path) for doc, path in paths
            if not any(glob.glob(os.path.join(ROOT, base, path))
                       for base in ("", "src", os.path.join("src",
                                                            "repro"))))
        assert not dangling, dangling

    @staticmethod
    def _headings(doc):
        """The headings of a markdown file, lower-cased."""
        return {line.lstrip("#").strip().lower()
                for line in _read(doc).splitlines()
                if re.match(r"#+ ", line)}

    @staticmethod
    def _slug(heading):
        """The anchor a markdown renderer gives ``heading``: lower case,
        punctuation dropped, each space a hyphen."""
        return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")

    def test_doc_heading_citations_resolve(self):
        """Every ``docs/x.md``, "Heading" citation in ``src/``,
        ``tests/oracles/`` and the prose docs names a heading of that
        file (case aside), even where the citation wraps a line."""
        sources = (sorted(glob.glob(os.path.join(ROOT, "src", "repro", "**",
                                                 "*.py"), recursive=True))
                   + sorted(glob.glob(os.path.join(ROOT, "tests", "oracles",
                                                   "*.py")))
                   + [os.path.join(ROOT, doc) for doc in _prose_docs()])
        citations = set()
        for source in sources:
            with open(source) as handle:
                # One line: a citation may wrap, inside a comment too.
                text = re.sub(r"\s*\n\s*(?:#:?\s*)?", " ", handle.read())
            citations.update(
                (os.path.relpath(source, ROOT), target, heading)
                for target, heading in re.findall(
                    r"docs/(\w+\.md)[`\]]*(?:\([\w.#-]+\))?,\s+"
                    r"\"([^\"]+)\"", text))
        assert len(citations) > 5
        missing = sorted(
            (source, target, heading) for source, target, heading in citations
            if heading.lower() not in self._headings(
                os.path.join("docs", target)))
        assert not missing, missing

    def test_doc_anchor_links_resolve(self):
        """Every ``x.md#anchor`` (or ``#anchor``) link in the prose docs
        matches the slug of a heading of the file it points at."""
        links = set()
        for doc in _prose_docs():
            for target, anchor in re.findall(
                    r"\]\(([\w/.]*\.md)?#([\w-]+)\)", _read(doc)):
                path = (os.path.normpath(os.path.join(os.path.dirname(doc),
                                                      target))
                        if target else doc)
                links.add((doc, path, anchor))
        assert links
        dangling = sorted(
            (doc, path, anchor) for doc, path, anchor in links
            if anchor not in {self._slug(h) for h in self._headings(path)})
        assert not dangling, dangling

    def test_performance_doc_stays_short(self):
        """``docs/performance.md`` says how the hot paths run today;
        each change's numbers live in CHANGES.md and ``BENCH_e2e.json``,
        so the doc does not grow a write-up per change."""
        lines = _read(os.path.join("docs", "performance.md")).splitlines()
        assert len(lines) <= 350, len(lines)

    def test_performance_doc_records_exist(self):
        """Each "CHANGES.md PR N" pointer in ``docs/performance.md``
        names an entry of CHANGES.md, and each quoted ``BENCH_e2e.json``
        label an entry of that file."""
        import json
        text = " ".join(_read(os.path.join("docs", "performance.md")).split())
        changes = _read("CHANGES.md")
        entries = sorted(set(re.findall(r"CHANGES\.md PR (\d+)", text)))
        assert entries
        missing = [n for n in entries
                   if not re.search(rf"^- (?:\*\*)?PR {n}\b", changes,
                                    re.MULTILINE)]
        assert not missing, missing
        labels = set(re.findall(r'`BENCH_e2e\.json` "([^"]+)"', text))
        assert labels
        recorded = {entry["label"] for entry in
                    json.loads(_read("BENCH_e2e.json"))["entries"]}
        assert labels <= recorded, sorted(labels - recorded)

    def test_mapping_doc_test_references_exist(self):
        text = _read(os.path.join("docs", "paper_mapping.md"))
        for test_file in set(re.findall(r"`(test_\w+\.py)", text)):
            assert os.path.exists(os.path.join(ROOT, "tests",
                                               test_file)), test_file
        for bench_file in set(re.findall(r"`(bench_\w+\.py)`", text)):
            assert os.path.exists(os.path.join(ROOT, "benchmarks",
                                               bench_file)), bench_file


class TestReplayStaysStaged:
    """The replay loops and the two sims are short drivers over named
    stages; a stage that grows past 100 lines is two stages fused back
    together."""

    STAGED = {"serve": ("serve/engine.py", "replay"),
              "cluster": ("cluster/engine.py", "replay"),
              "mutable": ("mutable/sim.py", "run_mutation_sim"),
              "heal": ("heal/soak.py", "run_soak_sim")}

    @pytest.mark.parametrize("module", list(STAGED))
    def test_no_function_longer_than_100_lines(self, module):
        path, driver = self.STAGED[module]
        tree = _tree(f"src/repro/{path}")
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)]
        assert any(node.name == driver for node in functions)
        too_long = [(node.name, node.end_lineno - node.lineno + 1)
                    for node in functions
                    if node.end_lineno - node.lineno + 1 > 100]
        assert not too_long, too_long

    @pytest.mark.parametrize("module", ["mutable", "heal"])
    def test_sim_stages_are_not_closures(self, module):
        tree = _tree(f"src/repro/{self.STAGED[module][0]}")
        nested = [inner.name for outer in ast.walk(tree)
                  if isinstance(outer, ast.FunctionDef)
                  for inner in ast.walk(outer)
                  if isinstance(inner, ast.FunctionDef)
                  and inner is not outer]
        assert not nested, nested
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Nonlocal)]


class TestOneDoorToTheTraversal:
    """Host width is decided in one place: the replays dispatch through
    ``stream_batches`` and never search on their own, ``ganns_search``
    is the only caller of the two kernels, and the lane store added no
    public name."""

    @staticmethod
    def _callers(name):
        src = os.path.join(ROOT, "src", "repro")
        found = set()
        for dirpath, _dirs, files in os.walk(src):
            for filename in files:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                tree = _tree(os.path.relpath(path, ROOT))
                if any(isinstance(node, ast.Call)
                       and getattr(node.func, "id",
                                   getattr(node.func, "attr", "")) == name
                       for node in ast.walk(tree)):
                    found.add(os.path.relpath(path, src))
        return found

    def test_kernels_are_reached_only_through_ganns_search(self):
        assert self._callers("_traverse") == {"perf/engine.py"}
        assert self._callers("ganns_search_fast") == {"core/ganns.py"}
        assert self._callers("ganns_search_staged") == {"core/ganns.py"}

    def test_replays_dispatch_through_stream_batches(self):
        searching = self._callers("ganns_search")
        assert "core/pipeline.py" in searching
        assert not {"serve/engine.py", "cluster/engine.py"} & searching
        assert {"serve/engine.py", "cluster/engine.py"} \
            <= self._callers("stream_batches")

    def test_a_cluster_replay_builds_one_store(self):
        """One store over every shard, so one traversal per round."""
        tree = _tree("src/repro/cluster/engine.py")
        built = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", "") == "_LaneStore"]
        assert len(built) == 1

    def test_package_surface_is_unchanged(self):
        import repro
        assert len(repro.__all__) == 74
        assert "_LaneStore" not in repro.__all__


class TestConstructionStaysBulk:
    """NN-descent and CAGRA run every stage over the whole vertex set.
    The RNG draws are the one per-vertex loop left (the stream is
    contract); ``range(max_iterations)`` and the three-argument chunk
    ranges do not walk the vertex set."""

    @staticmethod
    def _per_vertex_loops(module):
        tree = _tree(f"src/repro/core/{module}.py")
        loops = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.For, ast.comprehension))]
        return [node for node in loops
                if isinstance(node.iter, ast.Call)
                and getattr(node.iter.func, "id", "") in ("range",
                                                          "enumerate")
                and len(node.iter.args) == 1
                and ast.unparse(node.iter) != "range(max_iterations)"]

    def test_knng_loops_over_vertices_only_to_draw(self):
        loops = self._per_vertex_loops("knng")
        assert [ast.unparse(loop.iter) for loop in loops] == ["range(n)"]
        (draw,) = loops[0].body
        assert "rng.choice(" in ast.unparse(draw)

    def test_cagra_has_no_per_vertex_loop(self):
        loops = self._per_vertex_loops("cagra")
        assert not loops, [ast.unparse(loop.iter) for loop in loops]


class TestOneGGraphConBody:
    """``core/construction.py`` is the only executable Algorithm 2: the
    multicore build, GSerial and the sequential CPU baselines call it,
    priced by a clock, and never traverse, insert or merge on their own."""

    FILES = ("core/construction.py", "core/naive.py",
             "baselines/nsw_cpu.py")
    BODY_CALLS = {"beam_search_lanes", "insert_edge", "merge_row", "set_row",
                  "unique"}

    @staticmethod
    def _called_names(tree):
        return {getattr(node.func, "attr", getattr(node.func, "id", ""))
                for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def test_multicore_runs_no_algorithm_of_its_own(self):
        tree = _tree("src/repro/baselines/nsw_cpu.py")
        (multicore,) = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "build_nsw_multicore"]
        assert not self._called_names(multicore) & self.BODY_CALLS
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert "heapq" not in imported

    def test_gserial_runs_no_algorithm_of_its_own(self):
        tree = _tree("src/repro/core/naive.py")
        (gserial,) = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "build_nsw_serial_gpu"]
        assert not self._called_names(gserial) & self.BODY_CALLS
        statements = [node for node in ast.walk(gserial)
                      if isinstance(node, ast.stmt)
                      and node is not gserial]
        assert len(statements) <= 15

    def test_prefix_knn_is_written_once(self):
        holders = []
        for path in self.FILES:
            tree = _tree(f"src/repro/{path}")
            holders += [f"{path}:{node.name}" for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and "argpartition" in self._called_names(node)]
        assert holders == ["core/construction.py:nearest_in_prefix"]

    @pytest.mark.parametrize("path", ["baselines/nsw_cpu.py",
                                      "baselines/hnsw_cpu.py"])
    def test_sequential_baselines_run_no_algorithm_of_their_own(self, path):
        """GraphCon_NSW / GraphCon_HNSW are GGraphCon with one group on
        one core: no traversal, insertion or merge of their own."""
        tree = _tree(f"src/repro/{path}")
        assert not self._called_names(tree) & self.BODY_CALLS

    def test_construction_searches_are_lock_step(self):
        """A Phase-1 step, a Phase-2 merge iteration and a GNaiveParallel
        batch each search all of their vertices in one
        ``beam_search_lanes`` call: no loop over vertices searches."""
        for path in ("core/construction.py", "core/naive.py"):
            tree = _tree(f"src/repro/{path}")
            loops = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.For, ast.comprehension))
                     and "beam_search_lanes" in self._called_names(node)]
            assert [ast.unparse(loop.target) for loop in loops] in (
                [], ["step"]), path

    def test_heap_body_is_written_once(self):
        """Algorithm 1's heap loop (pop a candidate, scan its adjacency
        row) exists once in ``src/``: the lanes call runs it per lane
        below its crossover (the one-query loop is
        ``tests/oracles/beam_heap.py``)."""
        holders = []
        for path, tree in _src_trees():
            holders += [
                f"{path}:{node.name}" for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and "heappop" in self._called_names(node)
                and "neighbor_ids" in {attr.attr for attr in ast.walk(node)
                                       if isinstance(attr, ast.Attribute)}]
        assert holders == ["baselines/beam.py:_lane"]

    def test_levels_are_drawn_in_one_place(self):
        """Both HNSW builders share one level draw → shuffle → layers
        sequence: ``draw_levels`` has exactly one caller in ``src/``."""
        callers = []
        for root, _, names in os.walk(os.path.join(ROOT, "src", "repro")):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    tree = _tree(os.path.relpath(path, ROOT))
                    callers += [
                        os.path.relpath(path, ROOT) for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", "") == "draw_levels"]
        assert callers == ["src/repro/core/hnsw.py"]


def _src_trees():
    """``(path relative to src/repro, AST)`` of every module in ``src/``."""
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, _dirs, files in sorted(os.walk(src)):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                yield (os.path.relpath(path, src),
                       _tree(os.path.relpath(path, ROOT)))


class TestOneOfEach:
    """Every algorithm and every durable format is written once in
    ``src/``; the forms the library does not run live under
    ``tests/oracles/``."""

    #: Wording of the one query check (``core.ganns.check_queries``).
    QUERY_CHECK_MESSAGES = ("queries must be 2-D (n_queries",
                            "queries must be non-empty",
                            "NaN or infinite", "entry vertices must lie",
                            "one vertex per query")

    def test_one_nn_descent(self):
        modules = [path for path, _ in _src_trees()]
        assert "core/knng.py" in modules
        assert not [path for path in modules if "nn_descent" in path]

    def test_per_query_hnsw_descent_is_an_oracle(self):
        holders = []
        for dirpath, _dirs, files in os.walk(ROOT):
            if ".git" in dirpath:
                continue
            for filename in files:
                path = os.path.join(dirpath, filename)
                if filename.endswith(".py") and not os.path.samefile(
                        path, __file__):
                    with open(path) as handle:
                        if "def hnsw_entry_descent(" in handle.read():
                            holders.append(os.path.relpath(path, ROOT))
        assert holders == [os.path.join("tests", "oracles",
                                        "hnsw_descent.py")]

    def test_query_check_is_written_once(self):
        holders = set()
        for path, tree in _src_trees():
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                text = " ".join(
                    const.value for const in ast.walk(node)
                    if isinstance(const, ast.Constant)
                    and isinstance(const.value, str))
                if any(message in text
                       for message in self.QUERY_CHECK_MESSAGES):
                    holders.add(f"{path}:{node.name}")
        assert holders == {"core/ganns.py:check_queries"}

    def test_one_bfs(self):
        importers = set()
        for path, tree in _src_trees():
            if path.split("/")[0] not in ("graphs", "mutable"):
                continue
            if any(isinstance(node, ast.ImportFrom)
                   and node.module == "collections"
                   and "deque" in {alias.name for alias in node.names}
                   for node in ast.walk(tree)):
                importers.add(path)
        assert importers <= {"graphs/stats.py"}

    #: Registry names of the metrics ``src/`` ships.
    METRIC_NAMES = {"euclidean", "cosine", "ip"}
    #: The metric classes.
    METRIC_OWNERS = {"metrics/distance.py"}

    def test_metric_arithmetic_lives_in_metrics(self):
        """Outside the metric classes no code compares a metric's name,
        and rows are unit-normalised by exactly one function."""
        def names(node):
            elements = node.elts if isinstance(
                node, (ast.Tuple, ast.List, ast.Set)) else [node]
            return {element.value for element in elements
                    if isinstance(element, ast.Constant)}

        comparisons, normalisers = [], []
        for path, tree in _src_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Compare) and path not in \
                        self.METRIC_OWNERS:
                    operands = [node.left] + node.comparators
                    if any(names(operand) & self.METRIC_NAMES
                           for operand in operands):
                        comparisons.append(f"{path}:{node.lineno}")
                if isinstance(node, ast.FunctionDef):
                    called = {getattr(call.func, "attr", "")
                              for call in ast.walk(node)
                              if isinstance(call, ast.Call)}
                    if {"norm", "where"} <= called:
                        normalisers.append(f"{path}:{node.name}")
        assert not comparisons, comparisons
        assert normalisers == ["metrics/distance.py:prepare"]

    def test_one_arrays_to_graph_decoder(self):
        """Stored adjacency arrays become a graph only through
        ``ProximityGraph.from_arrays``."""
        writers = set()
        for path, tree in _src_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Attribute)
                        and target.attr in ("neighbor_ids", "neighbor_dists",
                                            "degrees")
                        for target in node.targets):
                    writers.add(path)
        assert writers == {"graphs/adjacency.py"}

    def test_one_serving_graph_rule(self):
        """A served graph is its family's own build: ``serving_graphs``
        is defined once, on the base backend; the cluster builds every
        shard through one call of it, not one per shard; the serving
        commands do not reach for the GraphCon_NSW baseline; and the
        merge iteration is driven only by the one Algorithm 2 body and
        the streaming insert."""
        definers, cli_imports, merge_callers = [], set(), []
        for path, tree in _src_trees():
            for node in ast.walk(tree):
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "serving_graphs"):
                    definers.append(path)
                if (isinstance(node, ast.FunctionDef)
                        and "merge_group_into_graph"
                        in TestOneGGraphConBody._called_names(node)):
                    merge_callers.append(f"{path}:{node.name}")
                if path == "cli.py" and isinstance(node, ast.ImportFrom):
                    cli_imports |= {alias.name for alias in node.names}
        assert definers == ["core/backend.py"]
        assert "build_nsw_cpu" not in cli_imports
        assert sorted(merge_callers) == ["core/construction.py:ggraphcon",
                                         "core/construction.py:"
                                         "insert_batch_nsw"]
        engine = _tree("src/repro/cluster/engine.py")
        calls = [node for node in ast.walk(engine)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", "") == "serving_graphs"]
        assert len(calls) == 1
        loops = [node for node in ast.walk(engine)
                 if isinstance(node, (ast.For, ast.While, ast.ListComp,
                                      ast.GeneratorExp))
                 and any(call in ast.walk(node) for call in calls)]
        assert loops == []

    def test_integer_fields_are_checked_once(self):
        """Parameter bundles and the cluster topology refuse floats and
        bools through the one ``core.params.as_count``."""
        holders = set()
        for path, tree in _src_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and any(
                        isinstance(const, ast.Constant)
                        and isinstance(const.value, str)
                        and "must be an integer" in const.value
                        for const in ast.walk(node)):
                    holders.add(f"{path}:{node.name}")
        assert holders == {"core/params.py:as_count"}


class TestSrcHoldsWhatRuns:
    """``src/`` holds what the product runs: a public function, class or
    method with no product caller is deleted (or, when tests need it,
    lives under ``tests/``), a backend hook no family overrides is not a
    hook, and reference implementations live under ``tests/oracles/``,
    which ``src/`` never imports."""

    PRODUCT_DIRS = ("src", "scripts", "benchmarks", "examples")

    #: What a family may override on ``IndexBackend``.
    BACKEND_METHODS = {"build", "build_parts", "serving_graphs",
                       "serialize_graph", "deserialize_graph"}

    #: Documented names no product code calls, each with the document
    #: that documents it.
    DOCUMENTED = {"FaultPlan.from_json": "docs/fault_model.md"}

    _COST_MODEL = ("a field of the calibrated cycle-cost model, one "
                   "table documented in docs/cost_model.md")
    _CPU_MODEL = ("a field of the CPU baselines' calibrated cost model, "
                  "one table in baselines/cpu_cost.py")
    _BENCH = ("a BenchConfig sizing: the paper evaluation's settings in the "
              "one bundle every benchmark reads as config.<name>")
    _FAMILY = ("family= selects the index family; the conformance and heal "
               "suites run every registered family through it")
    _GENERATOR = ("a synthetic-generator knob, set by name through "
                  "DatasetSpec.generator_kwargs (datasets/catalog.py), "
                  "which the census cannot follow")
    _SHAPE = ("a shape knob of the synthetic generators "
              "(datasets/synthetic.py), of the family a DatasetSpec sets "
              "by name through generator_kwargs")
    _THEOREM = ("exact= is Algorithm 2's exact-neighbour mode, the paper's "
                "theorem (docs/paper_mapping.md); tests build with it")
    _ANALYSIS = ("a knob of a graph-analysis measure (graphs/analysis.py, "
                 "printed by examples/graph_anatomy.py); tests vary it")
    _VALIDATE = ("one of validate_graph's documented checks "
                 "(docs/index_families.md); tests run it on built graphs")

    #: Options no product call site sets, each with why it stays an
    #: option (``test_every_option_is_set_by_a_product_caller``).
    OPTIONS_KEPT = {
        "compact_graph(costs)": "the repair's cycle charges on another "
        "table: test_compaction_oracle.py::TestAgainstPerRowPass holds "
        "them to the oracle's on drawn FRACTIONAL tables, whose "
        "non-integral charges show the order of a sum",
        **dict.fromkeys(
            (f"CostTable({name})" for name in (
                "alu_cycles", "ballot_cycles", "compare_exchange_cycles",
                "ffs_cycles", "fma_cycles", "hash_probe_cycles",
                "heap_op_cycles", "host_insert_cycles", "mem_fixed_cycles",
                "mem_word_cycles", "shared_access_cycles",
                "shuffle_cycles", "sync_cycles", "time_scale")),
            _COST_MODEL),
        **dict.fromkeys(
            (f"CpuModel({name})" for name in (
                "adjacency_insert_ns", "clock_ghz", "effective_flops",
                "hash_probe_ns", "heap_op_ns", "name")), _CPU_MODEL),
        **dict.fromkeys(
            (f"BenchConfig({name})" for name in (
                "base_points", "d_max", "d_min", "ganns_settings", "k",
                "max_points", "n_blocks", "n_queries", "song_settings")),
            _BENCH),
        "ClusterEngine(family)": _FAMILY,
        **dict.fromkeys((
            "gaussian_mixture(intrinsic_dim)", "zipf_clustered(anisotropy)",
            "zipf_clustered(cluster_std)", "zipf_clustered(intrinsic_dim)",
            "zipf_clustered(n_clusters)", "zipf_clustered(seed)",
            "zipf_clustered(zipf_exponent)"), _GENERATOR),
        **dict.fromkeys((
            "gaussian_mixture(ambient_noise)", "gaussian_mixture(spread)",
            "zipf_clustered(ambient_noise)", "zipf_clustered(spread)"),
            _SHAPE),
        **dict.fromkeys((
            "build_nsw_cpu(exact)", "build_nsw_gpu(exact)",
            "build_nsw_gpu_parts(exact)", "build_nsw_multicore(exact)"),
            _THEOREM),
        **dict.fromkeys((
            "hop_histogram(entry)", "hop_histogram(max_hops)",
            "mean_hops(entry)", "long_link_fraction(factor)",
            "neighborhood_overlap(sample)", "hop_distances(max_hops)"),
            _ANALYSIS),
        **dict.fromkeys((
            "validate_graph(points)", "validate_graph(d_min)",
            "validate_graph(check_distances)"), _VALIDATE),
        "NetworkModel(bandwidth_gbps)": "the interconnect model's link "
        "bandwidth; tests price transfers on other links",
        "NetworkModel(latency_ms)": "the interconnect model's latency; "
        "tests price transfers on other links",
        "build_cagra_gpu(intermediate_degree)": "CAGRA's construction "
        "degree before pruning, named in docs/index_families.md",
        "build_cagra_gpu(graph_degree)": "CAGRA's final degree, the second "
        "of the two construction degrees it exposes; tests vary it",
        "build_cagra_gpu(knn_iterations)": "NN-descent rounds under CAGRA; "
        "tests stop early to compare against the per-vertex oracle",
        "build_knn_graph_gpu(max_iterations)": "NN-descent's round cap; "
        "tests stop early to compare against the per-vertex oracle",
        "build_nsw_multicore(cpu)": "the CPU the multicore baseline is "
        "priced on; tests compare a fast and a slow CpuModel",
        "BloomFilter(n_hashes)": "the Bloom filter's hash count; tests "
        "check its false-positive behaviour and refuse zero",
        "CycleTracker.total_cycles(phase)": "one phase's cycles; tests "
        "compare kernels phase by phase",
        "merge_topk(n_queries)": "the row count of a merge over no shard "
        "runs; tests merge an empty list",
        "exact_knn(chunk_size)": "the ground-truth block size; tests "
        "check that results do not depend on it",
        "exact_knn(return_distances)": "tests read the exact distances "
        "beside the ids",
        "format_phase_bars(title)": "a heading over the phase bars; "
        "tests render one",
        "tune_search(grid)": "the tuner's candidate settings; tests pass "
        "a small grid",
        "tune_search(ground_truth)": "precomputed truth for the tuner "
        "(README); tests pass it to skip the exact scan",
    }

    @classmethod
    def _product_trees(cls):
        """``(path relative to the repo, AST)`` of every product file."""
        for top in cls.PRODUCT_DIRS:
            for dirpath, _dirs, files in sorted(os.walk(os.path.join(ROOT,
                                                                     top))):
                for filename in sorted(files):
                    if filename.endswith(".py"):
                        path = os.path.relpath(
                            os.path.join(dirpath, filename), ROOT)
                        yield path, _tree(path)

    @staticmethod
    def _class_bases():
        """``{class name: names of its bases}`` of every class under
        ``src/repro``."""
        bases = collections.defaultdict(set)
        for _, tree in _src_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    bases[node.name].update(
                        getattr(base, "id", getattr(base, "attr", ""))
                        for base in node.bases)
        return dict(bases)

    @staticmethod
    def _family(name, bases):
        """``name`` with its ancestors and descendants among the
        ``src`` classes ``bases`` maps."""
        family = {name}
        for step in (lambda cls: bases.get(cls, ()),
                     lambda cls: [sub for sub, of in bases.items()
                                  if cls in of]):
            todo = [name]
            while todo:
                found = set(step(todo.pop())) - family
                family |= found
                todo.extend(found)
        return family

    @staticmethod
    def _references(tree, classes, skip=(), owner=None):
        """Every name, attribute and identifier-shaped string ``tree``
        references outside ``skip``, with repeats, as ``(identifier,
        receiver)``.  An attribute's receiver is the ``src`` class it
        binds to: ``C.name`` for a class ``C`` in ``classes``,
        ``self.name`` / ``cls.name`` inside one (``owner`` when ``tree``
        is a method); any other receiver, a bare name and a string are
        ``None`` and match by name alone.  A string counts (a generator
        is named in a ``DatasetSpec``); an ``__all__`` list, the second
        half of a re-export, goes in ``skip``."""
        skipped = {id(node) for root in skip for node in ast.walk(root)}
        out = []
        todo = [(tree, owner)]
        while todo:
            node, owner = todo.pop()
            if id(node) in skipped:
                continue
            if isinstance(node, ast.ClassDef):
                owner = node.name
            if isinstance(node, ast.Name):
                out.append((node.id, None))
            elif isinstance(node, ast.Attribute):
                receiver = getattr(node.value, "id", None)
                if receiver in ("self", "cls"):
                    receiver = owner
                out.append((node.attr,
                            receiver if receiver in classes else None))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                out.append((node.value, None))
            todo.extend((child, owner)
                        for child in ast.iter_child_nodes(node))
        return out

    @staticmethod
    def _exports(tree):
        """The ``__all__`` assignments of a module."""
        return [node for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", "") == "__all__"
                        for target in node.targets)]

    @staticmethod
    def _exempt():
        """The ``repro.errors`` hierarchy: raised, not called."""
        errors = _tree(os.path.join("src", "repro", "errors.py"))
        return {node.name for node in errors.body
                if isinstance(node, ast.ClassDef)}

    def _definitions(self):
        """``{(path, qualified name): node}`` of every public top-level
        function or class, and every public method of a public class,
        under ``src/repro`` outside the exempt errors and the
        ``DOCUMENTED`` names."""
        exempt = self._exempt()
        defined = {}
        for path, tree in self._product_trees():
            if not path.startswith(os.path.join("src", "repro")):
                continue
            for node in tree.body:
                if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        or node.name.startswith("_")
                        or node.name in exempt):
                    continue
                defined[(path, node.name)] = node
                if isinstance(node, ast.ClassDef):
                    defined.update(
                        ((path, f"{node.name}.{item.name}"), item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and f"{node.name}.{item.name}"
                        not in self.DOCUMENTED)
        return defined

    def _uncalled(self, defined):
        """The qualified names in ``defined`` that no product code names
        outside their own definition.  A call inside the defining module
        counts; a definition naming itself (recursion, a method building
        its own class) does not, and neither does a re-export.  A method
        counts only the references that can bind to it: ``C.name`` or
        ``self.name`` for ``C`` in its class's family (ancestors and
        descendants), or ``x.name`` for an ``x`` that is not a ``src``
        class."""
        bases = self._class_bases()
        references = collections.Counter()
        own = {}
        for path, tree in self._product_trees():
            references.update(self._tally(
                self._references(tree, bases, self._exports(tree))))
            for (where, qualified), node in defined.items():
                if where == path:
                    owner = qualified.rpartition(".")[0] or None
                    own[qualified] = self._count(
                        self._tally(self._references(node, bases,
                                                     owner=owner)),
                        qualified, bases)
        return sorted(f"{path}::{qualified}"
                      for (path, qualified) in defined
                      if self._count(references, qualified, bases)
                      <= own[qualified])

    @staticmethod
    def _tally(references):
        """Counts of each referenced name and of each ``(name,
        receiver)`` pair."""
        tally = collections.Counter(references)
        tally.update(name for name, _ in references)
        return tally

    def _count(self, tally, qualified, bases):
        """How many tallied references can name ``qualified``: any of
        its name for a function or class; for a method, those bound to
        its class's family or to no ``src`` class."""
        owner, _, name = qualified.rpartition(".")
        if not owner:
            return tally[name]
        return sum(tally[name, receiver]
                   for receiver in self._family(owner, bases) | {None})

    def _uncalled_where(self, keep):
        """``_uncalled`` over the definitions ``keep(path, qualified)``
        selects; together the three tests below select every one."""
        defined = {key: node for key, node in self._definitions().items()
                   if keep(*key)}
        assert defined
        return self._uncalled(defined)

    @staticmethod
    def _in_gpusim(path):
        return path.startswith(os.path.join("src", "repro", "gpusim",
                                            ""))

    def test_every_gpusim_helper_has_a_product_caller(self):
        """A public function or class of ``repro.gpusim``."""
        uncalled = self._uncalled_where(
            lambda path, qualified: (self._in_gpusim(path)
                                     and "." not in qualified))
        assert not uncalled, uncalled

    def test_every_gpusim_method_has_a_product_caller(self):
        """A public method or property of a ``repro.gpusim`` class
        (another method of the class counts)."""
        uncalled = self._uncalled_where(
            lambda path, qualified: (self._in_gpusim(path)
                                     and "." in qualified))
        assert not uncalled, uncalled

    def test_every_public_name_has_a_product_caller(self):
        """Every package under ``src/repro`` besides ``gpusim``:
        functions, classes and methods."""
        uncalled = self._uncalled_where(
            lambda path, qualified: not self._in_gpusim(path))
        packages = {path.split(os.sep)[2]
                    for path, _ in self._definitions()
                    if path.count(os.sep) > 2}
        assert {"serve", "datasets", "baselines", "core"} <= packages
        assert not uncalled, uncalled

    def test_documented_names_are_documented(self):
        """Each ``DOCUMENTED`` name is named by its document, and still
        defined (a deleted one leaves the list)."""
        defined = {qualified for _, tree in _src_trees()
                   for node in tree.body if isinstance(node, ast.ClassDef)
                   for qualified in [f"{node.name}.{item.name}"
                                     for item in node.body
                                     if isinstance(item, ast.FunctionDef)]}
        for qualified, doc in self.DOCUMENTED.items():
            assert qualified in defined, qualified
            assert qualified.split(".")[-1] in _read(doc), (qualified, doc)

    def test_every_backend_hook_is_overridden(self):
        """A non-abstract ``IndexBackend`` method is overridden by a
        registered family, or reads a ``self.`` attribute one does (so
        ``serving_graphs`` stays, through ``hierarchical`` and
        ``build_parts``); its public methods are exactly the hooks."""
        from repro.core.backend import IndexBackend, backend_families, \
            get_backend
        overridden = set()
        for family in backend_families():
            for cls in type(get_backend(family)).__mro__:
                if cls is IndexBackend:
                    break
                overridden |= set(vars(cls))
        tree = _tree(os.path.join("src", "repro", "core", "backend.py"))
        base = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name == "IndexBackend")
        methods = [node for node in base.body
                   if isinstance(node, ast.FunctionDef)]
        unneeded = []
        for node in methods:
            if any(ast.unparse(deco) == "abc.abstractmethod"
                   for deco in node.decorator_list):
                continue
            reads = {child.attr for child in ast.walk(node)
                     if isinstance(child, ast.Attribute)
                     and isinstance(child.value, ast.Name)
                     and child.value.id == "self"}
            if node.name not in overridden and not reads & overridden:
                unneeded.append(node.name)
        assert not unneeded, unneeded
        public = {node.name for node in methods
                  if not node.name.startswith("_")}
        assert public == self.BACKEND_METHODS, sorted(public)

    @staticmethod
    def _annotation_names(tree):
        """Names read inside string annotations (``"ServeEngine"``)."""
        annotations = [node.annotation for node in ast.walk(tree)
                       if isinstance(node, (ast.arg, ast.AnnAssign))]
        annotations += [node.returns for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))]
        names = set()
        for annotation in filter(None, annotations):
            for node in ast.walk(annotation):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    names |= {name.id for name in ast.walk(
                        ast.parse(node.value, mode="eval"))
                        if isinstance(name, ast.Name)}
        return names

    def test_every_import_is_used(self):
        """A module-level import under ``src/repro`` is read by its
        module or listed in its ``__all__``; an ``__init__.py`` is a
        package's re-export list and is exempt."""
        unused = []
        for path, tree in _src_trees():
            if os.path.basename(path) == "__init__.py":
                continue
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            used |= self._annotation_names(tree)
            used |= {node.value for export in self._exports(tree)
                     for node in ast.walk(export)
                     if isinstance(node, ast.Constant)}
            for node in tree.body:
                if (not isinstance(node, (ast.Import, ast.ImportFrom))
                        or getattr(node, "module", "") == "__future__"):
                    continue
                unused += [f"{path}::{bound}" for bound in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if bound not in used]
        assert not unused, unused

    def test_src_never_imports_tests(self):
        importers = []
        for path, tree in _src_trees():
            for node in ast.walk(tree):
                modules = ([alias.name for alias in node.names]
                           if isinstance(node, ast.Import)
                           else [node.module or ""]
                           if isinstance(node, ast.ImportFrom) else [])
                if any(module.split(".")[0] == "tests"
                       for module in modules):
                    importers.append(f"{path}:{node.lineno}")
        assert not importers, importers

    # ------------------------------------------------------------------
    # Options: a settable value some product call site sets
    # ------------------------------------------------------------------

    @staticmethod
    def _parameters(function, bound):
        """``({parameter: position}, {parameter: position})`` of
        ``function``'s defaulted and required parameters (``None`` for
        keyword-only ones); ``bound`` skips the leading ``self`` /
        ``cls``."""
        args = function.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        first = len(positional) - len(args.defaults)
        defaulted, required = {}, {}
        for index, arg in enumerate(positional):
            (defaulted if index >= first else required)[arg.arg] = index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            (defaulted if default is not None else required)[arg.arg] = None
        return defaulted, required

    @classmethod
    def _signatures(cls, tree):
        """``(callee, label, function, owner, defaulted, required)``
        for every top-level function, method and settings dataclass of
        a module, the last two as :meth:`_parameters` gives them.  A
        constructor's callee is its class; a settings dataclass is a
        frozen one whose every field has a default (its fields are the
        constructor's parameters, ``function`` None)."""
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield (node.name, node.name, node, None,
                       *cls._parameters(node, False))
            if not isinstance(node, ast.ClassDef):
                continue
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and "ClassVar" not in ast.unparse(item.annotation)]
            if (fields and all(item.value is not None for item in fields)
                    and any("frozen=True" in ast.unparse(decorator)
                            for decorator in node.decorator_list)):
                yield (node.name, node.name, None, node,
                       {item.target.id: index
                        for index, item in enumerate(fields)}, {})
            for item in node.body:
                decorators = {ast.unparse(decorator)
                              for decorator in getattr(item,
                                                       "decorator_list",
                                                       ())}
                if (not isinstance(item, ast.FunctionDef)
                        or "property" in decorators):
                    continue
                if item.name == "__init__":
                    callee, label = node.name, node.name
                else:
                    callee, label = item.name, f"{node.name}.{item.name}"
                yield (callee, label, item, node,
                       *cls._parameters(item, "staticmethod"
                                        not in decorators))

    @staticmethod
    def _returned_keys(forest):
        """``{function: keys}`` of the functions every ``return`` of
        which is a dict display or a ``dict(...)`` call."""
        keys = {}
        for _, tree in forest:
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                found, whole = set(), True
                returns = [ret.value for ret in ast.walk(node)
                           if isinstance(ret, ast.Return)]
                for value in returns:
                    if (isinstance(value, ast.Call) and not value.args
                            and getattr(value.func, "id", "") == "dict"
                            and all(kw.arg for kw in value.keywords)):
                        found |= {kw.arg for kw in value.keywords}
                    elif isinstance(value, ast.Dict) and all(
                            isinstance(key, ast.Constant)
                            for key in value.keys):
                        found |= {key.value for key in value.keys}
                    else:
                        whole = False
                if returns and whole:
                    keys[node.name] = found
        return keys

    def _unset_options(self):
        """The options no product call site sets, as ``label(name)``.

        A call sets a parameter by keyword, by position, through a
        ``**`` dict whose keys are known, or through a ``**`` it cannot
        see into (which sets every parameter); ``replace(x, name=...)``
        sets the field ``name`` of every dataclass.  Passing a value on
        sets the parameter only when that value is set, so the census
        runs to a fixed point.  A value passed on is a parameter of the
        calling function or of a function enclosing it (``name=name``,
        set when the caller's own callers set it, required parameters
        included), an attribute stored from a constructor parameter
        (``name=self.name`` from the caller's class, ``name=x.name``
        from any class storing one), or the caller's ``**kwargs``.  A
        function no product code calls (a pytest benchmark, a CLI
        handler) receives outside input: its required parameters are
        set."""
        forest = list(self._product_trees())
        src = os.path.join("src", "repro", "")
        errors = os.path.join("src", "repro", "errors.py")
        options, reported, scope, attributes = {}, set(), {}, {}
        required_keys = set()
        for path, tree in forest:
            for callee, label, function, owner, params, required in \
                    self._signatures(tree):
                public = not (label.startswith("_") or function is not None
                              and function.name.startswith("_")
                              and function.name != "__init__")
                for name, position in params.items():
                    options.setdefault((callee, name), set()).add(position)
                    if public and path.startswith(src) and path != errors:
                        reported.add((callee, name, f"{label}({name})"))
                for name, position in required.items():
                    options.setdefault((callee, name), set()).add(position)
                    required_keys.add((callee, name))
                keys = {name: (callee, name) for name in {**params,
                                                          **required}}
                if function is not None:
                    scope[id(function)] = keys
                if owner is not None and callee == owner.name:
                    attributes.setdefault(owner.name, {}).update(keys)
        returned = self._returned_keys(forest)
        sites, forwards = [], []

        def argument_names(frame):
            args = frame.args
            return {arg.arg for arg in (args.posonlyargs + args.args
                                        + args.kwonlyargs
                                        + [args.vararg, args.kwarg])
                    if arg is not None}

        def visit(node, frames, owner, caller):
            if isinstance(node, ast.ClassDef):
                owner = node
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                frames += (node,)
            if isinstance(node, ast.FunctionDef):
                caller = (owner.name if node.name == "__init__"
                          and owner is not None else node.name)
            function = next((frame for frame in reversed(frames)
                             if isinstance(frame, ast.FunctionDef)), None)
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            args = getattr(node, "args", [])
            if name == "partial" and args:
                # partial(f, *args, **kwargs) is a call of f.
                func, args = args[0], args[1:]
                name = getattr(func, "id", getattr(func, "attr", None))
            if isinstance(node, ast.Call) and name is not None:
                if name == "cls" and owner is not None:
                    name = owner.name

                def condition(value):
                    """The options ``value`` passes on (any one set sets
                    the site), or ``None`` for a value set here."""
                    if isinstance(value, ast.Name):
                        # The innermost function binding the name.
                        frame = next((frame for frame in reversed(frames)
                                      if value.id in argument_names(frame)),
                                     None)
                        key = scope.get(id(frame), {}).get(value.id)
                        return None if key is None else {key}
                    if not isinstance(value, ast.Attribute):
                        return None
                    if getattr(value.value, "id", "") == "self":
                        stored = ([attributes.get(owner.name, {})]
                                  if owner is not None else [])
                    else:
                        stored = attributes.values()
                    keys = {held[value.attr] for held in stored
                            if value.attr in held}
                    return keys or None

                for keyword in node.keywords:
                    value = keyword.value
                    if keyword.arg:
                        sites.append((name, keyword.arg, None,
                                      condition(value)))
                    elif isinstance(value, ast.Dict) and all(
                            isinstance(key, ast.Constant)
                            for key in value.keys):
                        sites.extend((name, key.value, None,
                                      condition(item))
                                     for key, item in zip(value.keys,
                                                          value.values))
                    elif (isinstance(value, ast.Call)
                          and getattr(value.func, "id", "") in returned):
                        sites.extend((name, key, None, None)
                                     for key in returned[value.func.id])
                    elif (isinstance(value, ast.Name) and function
                          and function.args.kwarg is not None
                          and function.args.kwarg.arg == value.id):
                        forwards.append((name, caller))
                    else:
                        sites.append((name, "**", None, None))
                for index, arg in enumerate(args):
                    if isinstance(arg, ast.Starred):
                        sites.append((name, None, index, None))
                        break
                    sites.append((name, None, -index - 1, condition(arg)))
            for child in ast.iter_child_nodes(node):
                visit(child, frames, owner, caller)

        for _, tree in forest:
            visit(tree, (), None, None)
        # A site (callee, keyword, from, condition) sets a keyword (every
        # parameter for ``**``), the one position ``-from - 1``, or every
        # position from ``from`` on.
        called = {site[0] for site in sites} | {name for name, _ in forwards}
        settled = {key for key in required_keys if key[0] not in called}
        of_callee = collections.defaultdict(list)
        for key, positions in options.items():
            of_callee[key[0]].append((key, positions))
        grown = True
        while grown:
            before = len(settled)
            for name, keyword, start, condition in sites:
                if condition is not None and not condition & settled:
                    continue
                if keyword == "**":
                    settled |= {key for key, _ in of_callee[name]}
                elif keyword is not None:
                    settled.add((name, keyword))
                    if name == "replace":
                        settled |= {key for key in options
                                    if key[1] == keyword}
                else:
                    settled |= {
                        key for key, positions in of_callee[name]
                        if any(position is not None and (
                            position == -start - 1 if start < 0
                            else position >= start)
                            for position in positions)}
            for name, caller in forwards:
                settled |= {(name, key[1]) for key in list(settled)
                            if key[0] == caller}
            grown = len(settled) > before
        return {label for callee, name, label in reported
                if (callee, name) not in settled}

    def test_every_option_is_set_by_a_product_caller(self):
        """A defaulted parameter of a public ``src/repro`` function or
        method, or a field of a settings dataclass, is set by some
        product call site; an option nothing sets is a module constant.
        ``OPTIONS_KEPT`` names the exceptions with their reasons, and an
        entry leaves it once its option is set or gone."""
        unset = self._unset_options()
        unexplained = sorted(unset - set(self.OPTIONS_KEPT))
        assert not unexplained, ", ".join(unexplained)
        stale = sorted(set(self.OPTIONS_KEPT) - unset)
        assert not stale, ", ".join(stale)
        assert all(self.OPTIONS_KEPT.values())
