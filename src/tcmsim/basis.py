"""Global two-atom basis conventions.

The atomic basis order is fixed package-wide as (|aa>, |ab>, |ba>, |bb>)
with |a> the excited and |b> the ground single-atom state; the first letter
refers to atom 1.
"""

BRANCHES = ("aa", "ab", "ba", "bb")

# photons emitted along each branch relative to the initial |aa> state
EMITTED = (0, 1, 1, 2)
