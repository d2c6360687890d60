"""Scalar kernels for the hot datapath math (see :mod:`repro.accel.ops`).

Call sites import ``ops`` and call ``ops.<kernel>`` through the module
attribute rather than binding the functions, so a profiler that
replaces a kernel on the module sees every call.
"""
