"""Tour of the tensor core: forward ops, reverse-mode gradients, checking.

Run:  python demos/01_tensor_autodiff.py
"""

import numpy as np

from armformer import tensor as T
from armformer.gradcheck import grad_check
from armformer.tensor import Tensor

print("=== building blocks ===")
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
w = Tensor(np.random.default_rng(7).uniform(-1, 1, size=(2, 2)), requires_grad=True)
print("x =\n", x.data)
print("w (seeded uniform) =\n", w.data)

y = T.sigmoid(x @ w)
loss = (y * y).mean()
print("loss =", loss.item())

loss.backward()
print("dloss/dx =\n", x.grad)
print("dloss/dw =\n", w.grad)

print("\n=== the same gradients, verified by central differences ===")
x.zero_grad(), w.zero_grad()
report = grad_check(lambda: (T.sigmoid(x @ w) * T.sigmoid(x @ w)).mean(),
                    {"x": x, "w": w}, epsilon=1e-3, tolerance=1e-4)
print(report)

print("\n=== convolution and resizing behave like you expect ===")
img = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
kernel = Tensor(np.ones((1, 1, 2, 2)))
print("conv2d 2x2 ones, stride 2:\n", T.conv2d(img, kernel, stride=2).data[0, 0])
print("bilinear 4x4 -> 2x2:\n", T.bilinear_resize(img, 2, 2).data[0, 0])
print("global avg/max:",
      T.pool2d(img, "avg").item(), "/", T.pool2d(img, "max").item())

print("\n=== softmax rows always sum to one ===")
logits = Tensor(np.random.default_rng(0).uniform(-30, 30, size=(3, 6)))
print("row sums:", T.softmax(logits, axis=1).data.sum(axis=1))
