"""Reference models the production data plane is tested against.

* :mod:`oracles.latch_model` -- a one-byte-per-bit NumPy model of the
  S/C latch protocol (init, capture, transfer, XOR).
* :mod:`oracles.vth` -- SSD-level drains through the per-cell V_TH
  compare (``MwsExecutor.execute_degraded`` /
  ``execute_degraded_batch`` with no margin-read ladder).
"""
