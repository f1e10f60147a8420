"""Tour of the exact arithmetic layer: GF(2^m) scalars and matrices.

Every value is an integer bit-vector and every matrix a numpy array of
them; nothing here is approximate.  Run with ``python demos/01_field_and_matrices.py``.
"""

import random

from cbkap import GF2m, default_modulus

print("== the field GF(2^8) ==")
field = GF2m(8)
print(f"default degree-8 modulus: {field.modulus:#x} (x^8 + x^4 + x^3 + x + 1)")
print(f"smallest irreducible of degree 5: {default_modulus(5):#x}")

a, b = 0x53, 0xCA
print(f"{a:#x} * {b:#x} = {int(field.mul_arr(a, b)):#x}   (a classic inverse pair)")
print(f"inv({a:#x}) = {field.inv(a):#x}")
print(f"{a:#x} + {b:#x} = {a ^ b:#x}   (addition is XOR)")

print("\n== exact matrix algebra ==")
rng = random.Random(1)
m = field.random_matrix(rng, 4)
while not field.is_invertible(m):  # a random matrix is invertible with probability ~0.996
    m = field.random_matrix(rng, 4)
m_inv = field.mat_inv(m)
print("a random invertible 4x4 matrix:")
print(m)
print("product with its inverse:")
print(field.mat_mul(m, m_inv))
