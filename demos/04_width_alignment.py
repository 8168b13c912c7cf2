"""Large-width alignment of trained weights with their initialization.

With O(1/sqrt(n)) initialization and O(1/n) rank-1 feature updates, the
cosine between the trained weight matrix and its initialization tends to
1 as width n grows, with 1 - cos shrinking like 1/n. The fitted log-log
slope should therefore sit near -1.
"""

from trajkit import width_alignment
from trajkit.theory import WIDTH_FIXTURE


def main():
    curve = width_alignment(WIDTH_FIXTURE)
    print("width     cos(W_T, W_0)     1 - cos")
    for width, cos, one_minus in curve.points:
        print(f"{width:>5}     {cos:.8f}     {one_minus:.3e}")
    print(f"fitted log-log slope of 1 - cos vs width: {curve.fitted_loglog_slope:.3f}")


if __name__ == "__main__":
    main()
