"""Extended property-based tests: the grid census.

``test_census_totals_consistent`` is the correctness matrix's
``hyp:grid4`` cell (``tests/parity_matrix.py``), run here under the id
it always had.
"""

from parity_matrix import former_tests

former_tests(globals())
