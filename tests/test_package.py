import os
import subprocess
import sys

import makespan


def test_all_names_resolve_once():
    names = makespan.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(makespan, n)] == []


def test_import_leaves_the_process_pool_unloaded():
    # the process pool (multiprocessing, with logging, socket and pickle) is
    # imported only by a sweep that starts worker processes
    code = ("import sys, makespan, makespan.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(makespan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
