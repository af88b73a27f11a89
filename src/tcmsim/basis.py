"""Global two-atom basis conventions.

The atomic basis order is fixed package-wide as (|aa>, |ab>, |ba>, |bb>)
with |a> the excited and |b> the ground single-atom state; the first letter
refers to atom 1.
"""

BRANCHES = ("aa", "ab", "ba", "bb")
EXCITED_COUNT = {"aa": 2, "ab": 1, "ba": 1, "bb": 0}
